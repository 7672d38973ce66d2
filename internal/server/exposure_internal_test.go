package server

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsskv/internal/replication"
	"rsskv/internal/truetime"
	"rsskv/internal/wal"
	"rsskv/internal/wire"
)

// heldTransport is a live, routable follower whose acknowledged position
// only moves when the test says so: the SyncRepl ack gate, held by hand.
// (Acked stays 0, so the read router never picks it.)
type heldTransport struct {
	captureTransport
	acked atomic.Uint64
}

func (h *heldTransport) Routable() bool   { return true }
func (h *heldTransport) AckedSeq() uint64 { return h.acked.Load() }

// ackAll acknowledges everything ever appended and wakes the group.
func (h *heldTransport) ackAll(g *replication.Group) {
	h.acked.Store(math.MaxUint64)
	g.NoteAck()
}

// TestSyncReplGatesInMemoryShard: -sync-repl without -data-dir gates too.
// With the follower's ack held, neither a put nor a snapshot read of it is
// answered; both are once the ack advances.
func TestSyncReplGatesInMemoryShard(t *testing.T) {
	srv, cl := newTestServer(t, Config{Shards: 1, AllowReplicaJoin: true, SyncRepl: true})
	s := srv.shards[0]
	f := &heldTransport{}
	s.repl.Attach(f)

	putErr := make(chan error, 1)
	go func() {
		_, err := cl.Put("k", "v")
		putErr <- err
	}()
	for deadline := time.Now().Add(2 * time.Second); srv.stats.Puts.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("put never applied")
		}
		time.Sleep(time.Millisecond)
	}
	type roResult struct {
		vals map[string]string
		err  error
	}
	roDone := make(chan roResult, 1)
	go func() {
		vals, _, err := cl.ReadOnly("k")
		roDone <- roResult{vals, err}
	}()

	select {
	case err := <-putErr:
		t.Fatalf("put answered (err=%v) while the follower's ack was held", err)
	case r := <-roDone:
		t.Fatalf("snapshot read answered (%v, err=%v) while the follower's ack was held", r.vals, r.err)
	case <-time.After(100 * time.Millisecond):
	}

	f.ackAll(s.repl)
	if err := <-putErr; err != nil {
		t.Fatalf("put after the ack advanced: %v", err)
	}
	if r := <-roDone; r.err != nil || r.vals["k"] != "v" {
		t.Fatalf("snapshot read after the ack advanced = %v, err=%v, want k=v", r.vals, r.err)
	}
}

// gateRig drives one shard through the exposure gate with everything that
// could let a response out under the test's hand: requests enter through
// srv.dispatch on a connection the server does not track (so a fence or a
// crash cannot hide a wrongly released response by closing it), every
// frame that leaves lands on got, the shard loop is stepped closure by
// closure without its drain ever ending (so no flush runs until open), and
// on SyncRepl stacks the follower's acks are held by hand.
type gateRig struct {
	t       *testing.T
	srv     *Server
	s       *shard
	f       *heldTransport // nil without SyncRepl
	cw      *connWriter
	peer    net.Conn
	got     chan *wire.Response
	pending sync.WaitGroup
	valve   chan struct{} // closing it un-parks the loop; nil when not held
	nextID  uint64
}

func newGateRig(t *testing.T, durable, syncRepl bool) *gateRig {
	// ApplyBatchMax is huge so a held drain never ends on its own.
	cfg := Config{Shards: 1, ApplyBatchMax: 1 << 20, SyncRepl: syncRepl, AllowReplicaJoin: syncRepl}
	if durable {
		cfg.DataDir = t.TempDir()
	}
	r := &gateRig{t: t, srv: New(cfg), got: make(chan *wire.Response, 16)}
	r.s = r.srv.shards[0]
	if syncRepl {
		r.f = &heldTransport{}
		r.f.acked.Store(math.MaxUint64)
		r.s.repl.Attach(r.f)
	}
	server, peer := net.Pipe()
	r.cw, r.peer = newConnWriter(server), peer
	go func() {
		fr := wire.NewFrameReader(peer, wire.MaxFrame)
		for {
			resp, err := fr.ReadResponse()
			if err != nil {
				return
			}
			r.got <- resp
		}
	}()
	return r
}

func (r *gateRig) close() {
	if r.valve != nil {
		r.open()
	}
	r.srv.Close()
	r.cw.Close()
	r.peer.Close()
}

// send dispatches req the way a connection handler would.
func (r *gateRig) send(req *wire.Request) uint64 {
	r.nextID++
	req.ID = r.nextID
	r.srv.dispatch(req, r.cw, &r.pending)
	return req.ID
}

// step parks the shard loop behind everything queued so far, releasing
// the previous park if there was one. The new park is queued before the
// old one is released, so the loop's drain never sees an empty queue and
// never ends: closures run, flush does not. While parked, the test may
// read loop-only state (the park's channel operations order the accesses).
func (r *gateRig) step() {
	parked, next := make(chan struct{}), make(chan struct{})
	if !r.s.run(func() { close(parked); <-next }) {
		r.t.Fatal("shard loop closed")
	}
	if r.valve != nil {
		close(r.valve)
	}
	r.valve = next
	<-parked
}

// open lets the held drain end, which flushes.
func (r *gateRig) open() {
	close(r.valve)
	r.valve = nil
}

// hold parks the loop with an empty release queue (whatever earlier
// operations left there is flushed out first) and, where there is a
// follower, stops its acks.
func (r *gateRig) hold() {
	for r.step(); len(r.s.exposed) > 0; r.step() {
		r.open()
		time.Sleep(200 * time.Microsecond)
	}
	if r.f != nil {
		r.f.acked.Store(0)
	}
}

// stepUntilExposed steps the loop until n entries sit in the release queue.
func (r *gateRig) stepUntilExposed(n int) {
	r.t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; {
		r.step()
		if len(r.s.exposed) >= n {
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("release queue holds %d entries, want %d", len(r.s.exposed), n)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// expectQuiet fails if an OK response leaves within d (error responses —
// "server closed" from a coordinator on a dying server — are not
// exposures).
func (r *gateRig) expectQuiet(d time.Duration, why string) {
	r.t.Helper()
	timeout := time.After(d)
	for {
		select {
		case resp := <-r.got:
			if resp.OK {
				r.t.Fatalf("response %+v left %s", resp, why)
			}
		case <-timeout:
			return
		}
	}
}

// expect waits for the OK response to request id.
func (r *gateRig) expect(id uint64) *wire.Response {
	r.t.Helper()
	select {
	case resp := <-r.got:
		if resp.ID != id || !resp.OK {
			r.t.Fatalf("got response %+v, want OK for request %d", resp, id)
		}
		return resp
	case <-time.After(5 * time.Second):
		r.t.Fatalf("no response to request %d", id)
		return nil
	}
}

// do runs one request to completion with the gate open.
func (r *gateRig) do(req *wire.Request) *wire.Response { return r.expect(r.send(req)) }

// inject runs fn on the shard loop, behind the park if the loop is held.
func (r *gateRig) inject(fn func(s *shard)) {
	if !r.s.run(func() { fn(r.s) }) {
		r.t.Fatal("shard loop closed")
	}
}

// TestExposureGate pins the gate itself, for every kind of thing that
// leaves a shard on every stack: (a) while the batch is unflushed — and,
// under SyncRepl, while the follower's ack is held — nothing leaves;
// (b) once released, each response leaves exactly once; (c) a fence or a
// crash mid-wait means none ever leaves, and nothing is stranded.
func TestExposureGate(t *testing.T) {
	const skippedTxn = 4242
	kinds := []struct {
		name string
		// arm holds the rig, issues the operation, and returns the ID of
		// the response it will produce and a check on that response.
		arm func(r *gateRig) (id uint64, check func(*wire.Response) error)
	}{
		{"get", func(r *gateRig) (uint64, func(*wire.Response) error) {
			r.hold()
			return r.send(&wire.Request{Op: wire.OpGet, Key: "k"}), wantValue("v0")
		}},
		{"put", func(r *gateRig) (uint64, func(*wire.Response) error) {
			r.hold()
			return r.send(&wire.Request{Op: wire.OpPut, Key: "k", Value: "v1"}), nil
		}},
		{"rw-commit", func(r *gateRig) (uint64, func(*wire.Response) error) {
			r.hold()
			req := &wire.Request{Op: wire.OpCommit, Keys: []string{"k"}, KVs: []wire.KV{{Key: "k2", Value: "y"}}}
			return r.send(req), wantKVs("k", "v0")
		}},
		{"ro-leader", func(r *gateRig) (uint64, func(*wire.Response) error) {
			r.hold()
			return r.send(&wire.Request{Op: wire.OpROTxn, Keys: []string{"k"}}), wantKVs("k", "v0")
		}},
		// A snapshot read skipped a concurrent preparer whose t_p is at or
		// below t_snap and is waiting for its outcome; the operation under
		// test is the preparer's commit, whose outcome the read folds in.
		{"ro-fold", func(r *gateRig) (uint64, func(*wire.Response) error) {
			var tp truetime.Timestamp
			farFuture := r.srv.clock.Now().Latest + truetime.Timestamp(time.Hour)
			r.inject(func(s *shard) {
				tp = s.nextTS()
				s.prepared[skippedTxn] = &prepEntry{tp: tp, tee: farFuture, writes: []wire.KV{{Key: "k", Value: "v2"}}}
			})
			r.do(&wire.Request{Op: wire.OpPut, Key: "other", Value: "x"}) // pushes t_snap above t_p
			id := r.send(&wire.Request{Op: wire.OpROTxn, Keys: []string{"k", "other"}})
			for deadline := time.Now().Add(5 * time.Second); r.srv.stats.ROSkips.Load() == 0; {
				if time.Now().After(deadline) {
					r.t.Fatal("snapshot read never skipped the preparer")
				}
				time.Sleep(200 * time.Microsecond)
			}
			r.hold() // flushes the read's own portion out first
			r.inject(func(s *shard) {
				s.store.Write("k", "v2", tp)
				s.walAppend(wal.KindCommit, skippedTxn, tp, 0, s.prepared[skippedTxn].writes)
				s.replicate(replication.EntryCommit, skippedTxn, tp, s.prepared[skippedTxn].writes)
				s.resolvePrepared(skippedTxn, true, tp)
			})
			return id, wantKVs("k", "v2")
		}},
	}
	stacks := []struct {
		name              string
		durable, syncRepl bool
		failures          []string
	}{
		// Nothing can fail an undurable, unreplicated flush.
		{"mem", false, false, nil},
		{"mem+syncrepl", false, true, []string{"fence"}},
		{"durable", true, false, []string{"fence", "crash"}},
		{"durable+syncrepl", true, true, []string{"fence", "crash"}},
	}
	for _, st := range stacks {
		for _, k := range kinds {
			for _, outcome := range append([]string{"release"}, st.failures...) {
				t.Run(fmt.Sprintf("%s/%s/%s", st.name, k.name, outcome), func(t *testing.T) {
					before := runtime.NumGoroutine()
					r := newGateRig(t, st.durable, st.syncRepl)
					r.do(&wire.Request{Op: wire.OpPut, Key: "k", Value: "v0"})
					id, check := k.arm(r)
					r.stepUntilExposed(1)
					r.expectQuiet(30*time.Millisecond, "before its batch was flushed")

					switch outcome {
					case "release":
						r.open()
						if r.f != nil {
							r.expectQuiet(30*time.Millisecond, "while the follower's ack was held")
							r.f.ackAll(r.s.repl)
						}
						resp := r.expect(id)
						if check != nil {
							if err := check(resp); err != nil {
								t.Fatal(err)
							}
						}
						r.expectQuiet(30*time.Millisecond, "a second time")
					case "fence":
						if r.f != nil {
							r.open() // fence the flush while it waits for the ack
							time.Sleep(10 * time.Millisecond)
							r.srv.fenceTo(2, "")
						} else {
							r.srv.fenceTo(2, "")
							r.open()
						}
						r.expectQuiet(100*time.Millisecond, "from a fenced leader")
					case "crash":
						crashed := make(chan struct{})
						go func() { r.srv.Crash(); close(crashed) }()
						for !r.s.wal.Crashed() {
							time.Sleep(200 * time.Microsecond)
						}
						r.open()
						<-crashed
						r.expectQuiet(100*time.Millisecond, "from a crashed server")
					}

					// Nothing stranded: every handler-side accounting ran, every
					// coordinator returned, and teardown leaves no goroutine.
					drained := make(chan struct{})
					go func() { r.pending.Wait(); close(drained) }()
					select {
					case <-drained:
					case <-time.After(5 * time.Second):
						t.Fatal("an operation is still in flight after its flush resolved")
					}
					r.close()
					for deadline := time.Now().Add(3 * time.Second); runtime.NumGoroutine() > before; {
						if time.Now().After(deadline) {
							buf := make([]byte, 1<<20)
							t.Fatalf("goroutine leak: %d before, %d after\n%s",
								before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
						}
						time.Sleep(5 * time.Millisecond)
					}
				})
			}
		}
	}
}

func wantValue(v string) func(*wire.Response) error {
	return func(resp *wire.Response) error {
		if resp.Value != v {
			return fmt.Errorf("response value %q, want %q", resp.Value, v)
		}
		return nil
	}
}

func wantKVs(key, v string) func(*wire.Response) error {
	return func(resp *wire.Response) error {
		for _, kv := range resp.KVs {
			if kv.Key == key && kv.Value == v {
				return nil
			}
		}
		return fmt.Errorf("response reads %v, want %s=%q", resp.KVs, key, v)
	}
}
