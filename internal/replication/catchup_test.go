package replication

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"rsskv/internal/mvstore"
	"rsskv/internal/netio"
	"rsskv/internal/truetime"
	"rsskv/internal/wire"
)

// testLeader is a minimal leader daemon for exercising the socket
// transport in-package: one shard group, a source store, and a wire server
// speaking the pull/ack/snapshot protocol with the same registration rules
// as internal/server (keyed by advertised address, nonce change replaces
// the transport). Appends go through append() so store and log stay
// mutually consistent — the same single-appender discipline the real shard
// loop provides.
type testLeader struct {
	t     *testing.T
	ln    net.Listener
	g     *Group
	store *mvstore.Store

	mu     sync.Mutex
	seqTS  int
	reg    map[string]string // advertised addr -> nonce
	trans  map[string]*SockTransport
	closed bool
	wg     sync.WaitGroup
}

func newTestLeader(t *testing.T) *testLeader {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := &testLeader{
		t: t, ln: ln, g: NewGroup(0, 0, Chaos{}), store: mvstore.New(),
		reg: map[string]string{}, trans: map[string]*SockTransport{},
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			l.wg.Add(1)
			go func() {
				defer l.wg.Done()
				l.handle(nc)
			}()
		}
	}()
	t.Cleanup(l.Close)
	return l
}

func (l *testLeader) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.mu.Unlock()
	l.ln.Close()
	l.g.Close()
	l.wg.Wait()
}

// append commits one write into the leader store and the replicated log,
// watermark = ts (no prepared set in this harness).
func (l *testLeader) append(key, value string) truetime.Timestamp {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seqTS++
	ts := truetime.Timestamp(l.seqTS * 10)
	l.store.Write(key, value, ts)
	appendOne(l.g, EntryCommit, uint64(l.seqTS), ts, ts, []wire.KV{{Key: key, Value: value}})
	return ts
}

// register implements the server's registration rule: first contact dials
// back and attaches; a changed nonce (restarted replica) replaces the old
// transport.
func (l *testLeader) register(addr, nonce string) (*SockTransport, error) {
	l.mu.Lock()
	cur, known := l.reg[addr]
	tr := l.trans[addr]
	l.mu.Unlock()
	if known && cur == nonce {
		return tr, nil
	}
	fresh, err := NewSockTransport(0, addr, 0)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if old := l.trans[addr]; old != nil {
		l.g.Detach(old)
		old.Close()
	}
	l.reg[addr] = nonce
	l.trans[addr] = fresh
	l.g.Attach(fresh)
	return fresh, nil
}

func (l *testLeader) handle(nc net.Conn) {
	defer nc.Close()
	cw := netio.NewConnWriter(nc)
	defer cw.Close()
	fr := wire.NewFrameReader(nc, NodeMaxFrame)
	var pending sync.WaitGroup
	defer pending.Wait()
	for {
		req, err := fr.ReadRequest()
		if err != nil {
			return
		}
		switch req.Op {
		case wire.OpReplEntry:
			if _, err := l.register(req.Key, req.Value); err != nil {
				cw.Send(&wire.Response{ID: req.ID, Op: req.Op, Err: err.Error()})
				continue
			}
			pending.Add(1)
			go func(req *wire.Request) { // long poll off the read loop
				defer pending.Done()
				cw.Send(l.g.ServePull(req, 1))
			}(req)
		case wire.OpReplAck:
			tr, err := l.register(req.Key, req.Value)
			if err != nil {
				cw.Send(&wire.Response{ID: req.ID, Op: req.Op, Err: err.Error()})
				continue
			}
			tr.RecordAck(req.Seq, truetime.Timestamp(req.TMin))
			cw.Send(&wire.Response{ID: req.ID, Op: req.Op, OK: true})
		case wire.OpReplSnapshot:
			if _, err := l.register(req.Key, req.Value); err != nil {
				cw.Send(&wire.Response{ID: req.ID, Op: req.Op, Err: err.Error()})
				continue
			}
			l.mu.Lock() // consistent cut: store dump + log position together
			var vals []wire.ReplVal
			l.store.Dump(func(key string, v mvstore.Version) {
				vals = append(vals, wire.ReplVal{Key: key, Value: v.Value, TS: int64(v.TS)})
			})
			seq := l.g.NextSeq()
			w := truetime.Timestamp(l.seqTS * 10)
			l.mu.Unlock()
			cw.Send(SnapshotResponse(req, vals, seq, w, 1))
		default:
			cw.Send(&wire.Response{ID: req.ID, Op: req.Op, Err: "unexpected op"})
		}
	}
}

func (l *testLeader) transport(t *testing.T, n *Node) *SockTransport {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	tr := l.trans[n.Advertise()]
	if tr == nil {
		t.Fatalf("node %s never registered", n.Advertise())
	}
	return tr
}

func startTestNode(t *testing.T, l *testLeader, chaos Chaos) *Node {
	t.Helper()
	n, err := StartNode(NodeConfig{Leader: l.ln.Addr().String(), Chaos: chaos})
	if err != nil {
		t.Fatalf("StartNode: %v", err)
	}
	t.Cleanup(n.Close)
	return n
}

// TestSockTransportEndToEnd: a node joins over real sockets, streams the
// log, acknowledges progress (the leader's SockTransport sees it), and
// serves a routed read with the correct versions. Joining a fresh leader,
// the whole history arrives by pull — no snapshot.
func TestSockTransportEndToEnd(t *testing.T) {
	l := newTestLeader(t)
	n := startTestNode(t, l, Chaos{})
	var last truetime.Timestamp
	for i := 1; i <= 50; i++ {
		last = l.append(fmt.Sprintf("k%d", i%5), fmt.Sprintf("v%d", i))
	}
	waitFor(t, "node catch-up", func() bool { return n.TSafe(0) >= last })
	tr := l.transport(t, n)
	waitFor(t, "acks reach the leader", func() bool { return tr.Acked() >= last })

	// The group routes to the socket transport like any other.
	routed := l.g.Route(last, 0)
	if routed == nil {
		t.Fatal("router offered no transport for a covered t_read")
	}
	if routed.Kind() != "sock" {
		t.Fatalf("routed transport kind = %q, want sock", routed.Kind())
	}
	vals, ok, abandoned := routed.Read(last, []string{"k0", "k3"}, time.Second)
	if !ok || abandoned {
		t.Fatalf("routed read failed: ok=%v abandoned=%v", ok, abandoned)
	}
	// k0 last written by i=50 (v50@500), k3 by i=48 (v48@480).
	if vals[0].Key != "k0" || vals[0].Value != "v50" || vals[0].TS != 500 {
		t.Errorf("k0 = %+v, want v50@500", vals[0])
	}
	if vals[1].Key != "k3" || vals[1].Value != "v48" || vals[1].TS != 480 {
		t.Errorf("k3 = %+v, want v48@480", vals[1])
	}
	if n.Snapshots() != 0 {
		t.Errorf("full replay took %d snapshots, want 0", n.Snapshots())
	}
}

// TestSockReadParksUntilCovered: a routed read above the node's applied
// watermark parks at the replica and is woken by the entry that covers it
// — the Spanner replica-wait rule, across a socket.
func TestSockReadParksUntilCovered(t *testing.T) {
	l := newTestLeader(t)
	ts1 := l.append("k", "v1")
	n := startTestNode(t, l, Chaos{})
	waitFor(t, "catch-up", func() bool { return n.TSafe(0) >= ts1 })
	tr := l.transport(t, n)

	done := make(chan []Val, 1)
	go func() {
		// t_read lands exactly on the next commit's timestamp: the read
		// must park (applied watermark is still ts1) and, once woken,
		// include that commit.
		vals, ok, _ := tr.Read(ts1+10, []string{"k"}, 2*time.Second)
		if !ok {
			done <- nil
			return
		}
		done <- vals
	}()
	select {
	case <-done:
		t.Fatal("read above the replica's t_safe served without waiting")
	case <-time.After(30 * time.Millisecond):
	}
	ts2 := l.append("k", "v2") // watermark ts2 = ts1+10 covers the park
	if ts2 != ts1+10 {
		t.Fatalf("test assumption broken: ts2 = %d, want %d", ts2, ts1+10)
	}
	vals := <-done
	if vals == nil || vals[0].Value != "v2" || vals[0].TS != ts2 {
		t.Fatalf("woken read = %+v, want v2@%d", vals, ts2)
	}
}

// TestSockSnapshotCatchUp is the acceptance test for truncation + catch-up:
// a node that joins after the leader truncated its log (and a node that
// rejoins after falling behind) installs a snapshot plus the suffix and
// then serves a covered read with every version intact.
func TestSockSnapshotCatchUp(t *testing.T) {
	l := newTestLeader(t)
	l.g.SetRetain(16)
	// A detached-looking history: 200 writes, far past the retention cap,
	// before any replica exists.
	var last truetime.Timestamp
	for i := 1; i <= 200; i++ {
		last = l.append(fmt.Sprintf("k%d", i%7), fmt.Sprintf("v%d", i))
	}
	n := startTestNode(t, l, Chaos{})
	waitFor(t, "snapshot catch-up", func() bool { return n.TSafe(0) >= last })
	if n.Snapshots() == 0 {
		t.Fatal("node caught up without a snapshot despite truncation")
	}
	tr := l.transport(t, n)
	waitFor(t, "acks", func() bool { return tr.Acked() >= last })
	vals, ok, _ := tr.Read(last, []string{"k1"}, time.Second)
	if !ok || vals[0].Value != "v197" {
		t.Fatalf("post-snapshot read = %+v ok=%v, want v197", vals, ok)
	}
	// Historical versions below the snapshot cut survive too: the dump
	// carries whole version chains, so a read at an old timestamp sees
	// the old value rather than a hole.
	old, ok, _ := tr.Read(150, []string{"k1"}, time.Second)
	if !ok || old[0].Value != "v15" || old[0].TS != 150 {
		t.Fatalf("historical read = %+v ok=%v, want v15@150", old, ok)
	}

	// Rejoin after truncation: the node dies, the leader moves on past
	// the cap, a new node at the same address (fresh nonce) must catch up
	// via snapshot + suffix replay and serve again.
	addr := n.Addr()
	n.Close()
	for i := 201; i <= 400; i++ {
		last = l.append(fmt.Sprintf("k%d", i%7), fmt.Sprintf("v%d", i))
	}
	n2, err := StartNode(NodeConfig{Leader: l.ln.Addr().String(), Addr: addr})
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	defer n2.Close()
	waitFor(t, "rejoin catch-up", func() bool { return n2.TSafe(0) >= last })
	if n2.Snapshots() == 0 {
		t.Fatal("rejoined node caught up without a snapshot")
	}
	tr2 := l.transport(t, n2)
	waitFor(t, "rejoin acks", func() bool { return tr2.Acked() >= last })
	vals, ok, _ = tr2.Read(last, []string{"k1"}, time.Second)
	if !ok || vals[0].Value != "v400" {
		t.Fatalf("post-rejoin read = %+v ok=%v, want v400", vals, ok)
	}
	// The replaced transport is no longer routable; the fresh one is.
	if tr.Routable() {
		t.Error("stale transport of the dead node still routable")
	}
}

// TestSockNeverServesAboveTSafe is the socket twin of the channel
// property test: racing appends against routed reads, a served read's
// t_read is always at or below the node's applied watermark by serve time.
func TestSockNeverServesAboveTSafe(t *testing.T) {
	l := newTestLeader(t)
	first := l.append("k1", "v0")
	n := startTestNode(t, l, Chaos{})
	waitFor(t, "join", func() bool { return n.TSafe(0) >= first })
	tr := l.transport(t, n)

	// A paced appender: fast enough that reads race applies, slow enough
	// that the node keeps up (a flooded node just times every read out,
	// which races nothing).
	var wg sync.WaitGroup
	wg.Add(1)
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			l.append(fmt.Sprintf("k%d", i%9), fmt.Sprintf("v%d", i))
			if i%64 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		observed := n.TSafe(0)
		// Mostly-covered reads serve immediately; the +20 tail exercises
		// parks racing the advancing watermark.
		tread := truetime.Timestamp(rng.Intn(int(observed) + 20))
		if _, ok, _ := tr.Read(tread, []string{"k1"}, 20*time.Millisecond); ok {
			if ts := n.TSafe(0); tread > ts {
				t.Fatalf("socket replica served t_read %d above its t_safe %d", tread, ts)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestSockKillAndDropAcksHooks: the leader-side failure hooks behave
// identically over the socket transport — Kill refuses reads and stops the
// router; DropAcks freezes the advertised watermark while the node keeps
// applying.
func TestSockKillAndDropAcksHooks(t *testing.T) {
	l := newTestLeader(t)
	ts1 := l.append("k", "v1")
	n := startTestNode(t, l, Chaos{})
	tr := l.transport(t, n)
	waitFor(t, "acks", func() bool { return tr.Acked() >= ts1 })

	tr.DropAcks()
	frozen := tr.Acked()
	ts2 := l.append("k", "v2")
	waitFor(t, "silent apply", func() bool { return n.TSafe(0) >= ts2 })
	if tr.Acked() != frozen {
		t.Fatalf("acked watermark advanced to %d after DropAcks", tr.Acked())
	}
	if l.g.Route(ts2, 0) != nil {
		t.Fatal("router offered a transport whose acks are frozen below t_read")
	}
	// The replica still serves covered reads (it is correct, just silent).
	vals, ok, _ := tr.Read(ts2, []string{"k"}, time.Second)
	if !ok || vals[0].Value != "v2" {
		t.Fatalf("silent replica read = %+v ok=%v, want v2", vals, ok)
	}

	tr.Kill()
	if tr.Routable() {
		t.Fatal("killed transport still routable")
	}
	if _, ok, _ := tr.Read(ts1, []string{"k"}, 100*time.Millisecond); ok {
		t.Fatal("killed transport served a read")
	}
}

// TestSockChaosDelayedApplies: the delayed-applies fault crosses the wire —
// the node acknowledges watermarks (OpReplAck) ahead of its applies, so
// the leader-side transport advertises a t_safe the replica's store does
// not yet honor, and routed reads serve stale state.
func TestSockChaosDelayedApplies(t *testing.T) {
	l := newTestLeader(t)
	n := startTestNode(t, l, Chaos{DelayedApplies: true, ApplyDelay: 80 * time.Millisecond})
	tr := l.transport(t, n)
	ts1 := l.append("k", "v1")
	waitFor(t, "early ack", func() bool { return tr.Acked() >= ts1 })
	vals, ok, _ := tr.Read(ts1, []string{"k"}, time.Second)
	if !ok {
		t.Fatal("chaos replica refused the routed read")
	}
	if vals[0].Value == "v1" {
		t.Skip("apply won the race; nothing to assert")
	}
	if vals[0].Value != "" {
		t.Fatalf("chaos read = %+v, want the stale (empty) pre-state", vals[0])
	}
	waitFor(t, "late apply", func() bool { return n.TSafe(0) >= ts1 })
}
