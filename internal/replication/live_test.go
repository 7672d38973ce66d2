package replication

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rsskv/internal/truetime"
	"rsskv/internal/wire"
)

const readTimeout = time.Second

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// chanT returns follower i as its concrete in-process transport, for
// assertions on the replica's real (applied) t_safe.
func chanT(t *testing.T, g *Group, i int) *ChanTransport {
	t.Helper()
	tr := g.Transport(i)
	if tr == nil {
		t.Fatalf("no transport %d", i)
	}
	ct, ok := tr.(*ChanTransport)
	if !ok {
		t.Fatalf("transport %d is %T, want *ChanTransport", i, tr)
	}
	return ct
}

// TestFollowerConvergence: commits appended by the leader become readable
// on every follower at their commit timestamps once the watermark covers
// them.
func TestFollowerConvergence(t *testing.T) {
	g := NewGroup(0, 2, Chaos{})
	defer g.Close()
	for i := 1; i <= 100; i++ {
		ts := truetime.Timestamp(i * 10)
		appendOne(g, EntryCommit, uint64(i), ts, ts, []wire.KV{{Key: fmt.Sprintf("k%d", i%7), Value: fmt.Sprintf("v%d", i)}})
	}
	for i := 0; i < g.Transports(); i++ {
		f := g.Transport(i)
		// Read parks until the watermark covers t_read, so no pre-wait is
		// needed. Key k3 was last written by txn 94 at ts 940.
		vals, ok, _ := f.Read(1000, []string{"k3"}, readTimeout)
		if !ok {
			t.Fatalf("follower %d refused a covered read", i)
		}
		if vals[0].Value != "v94" || vals[0].TS != 940 {
			t.Fatalf("follower %d read k3 = %+v, want v94@940", i, vals[0])
		}
	}
}

// TestReadParksUntilWatermarkCovers: a read ahead of the replica's t_safe
// waits for the watermark instead of serving a torn prefix, and is woken
// by the entry that covers it.
func TestReadParksUntilWatermarkCovers(t *testing.T) {
	g := NewGroup(0, 1, Chaos{})
	defer g.Close()
	f := chanT(t, g, 0)
	appendOne(g, EntryCommit, 1, 10, 10, []wire.KV{{Key: "k", Value: "v1"}})
	waitFor(t, "first apply", func() bool { return f.TSafe() >= 10 })

	done := make(chan []Val, 1)
	go func() {
		vals, ok, _ := f.Read(25, []string{"k"}, readTimeout)
		if !ok {
			done <- nil
			return
		}
		done <- vals
	}()
	select {
	case <-done:
		t.Fatal("read at t_read above t_safe served without waiting")
	case <-time.After(20 * time.Millisecond):
	}
	appendOne(g, EntryCommit, 2, 20, 30, []wire.KV{{Key: "k", Value: "v2"}})
	vals := <-done
	if vals == nil || vals[0].Value != "v2" || vals[0].TS != 20 {
		t.Fatalf("woken read = %+v, want v2@20", vals)
	}
}

// TestFollowerNeverServesAboveTSafe is the property test for the t_safe
// discipline: under a randomized stream of entries racing randomized
// reads, every read a follower serves must have t_read at or below the
// watermark the replica had applied by serve time, and neither the applied
// nor the acknowledged watermark may ever regress. (The socket transport's
// twin lives in catchup_test.go.)
func TestFollowerNeverServesAboveTSafe(t *testing.T) {
	g := NewGroup(0, 1, Chaos{})
	defer g.Close()
	f := chanT(t, g, 0)

	// Stay under the transport depth: the point is racing reads against
	// applies, not forcing the overflow-detach path (tested separately).
	const entries = 3000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // appender: watermarks advance with random strides
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		var wm truetime.Timestamp
		for i := 1; i <= entries; i++ {
			wm += truetime.Timestamp(rng.Intn(5))
			kind := EntryPrepare
			var writes []wire.KV
			if rng.Intn(2) == 0 {
				kind = EntryCommit
				writes = []wire.KV{{Key: fmt.Sprintf("k%d", rng.Intn(9)), Value: fmt.Sprintf("v%d", i)}}
			}
			appendOne(g, kind, uint64(i), wm+1, wm, writes)
		}
	}()

	rng := rand.New(rand.NewSource(2))
	var lastApplied, lastAcked truetime.Timestamp
	for i := 0; i < 5000; i++ {
		if a := f.TSafe(); a < lastApplied {
			t.Fatalf("applied watermark regressed: %d after %d", a, lastApplied)
		} else {
			lastApplied = a
		}
		if a := f.Acked(); a < lastAcked {
			t.Fatalf("acked watermark regressed: %d after %d", a, lastAcked)
		} else {
			lastAcked = a
		}
		// Short timeout: a read at or below the applied watermark serves
		// immediately, so only reads parked above the final watermark can
		// time out — and refusing those is legal.
		tread := truetime.Timestamp(rng.Intn(int(lastApplied) + 100))
		if _, ok, _ := f.Read(tread, []string{"k1"}, 20*time.Millisecond); ok {
			// The serve-time watermark can only have advanced by the time
			// we re-read it, so this is a sound (if loose) bound: a serve
			// above t_safe with a frozen watermark would trip it.
			if ts := f.TSafe(); tread > ts {
				t.Fatalf("follower served t_read %d above its t_safe %d", tread, ts)
			}
		} else if tread <= lastApplied {
			t.Fatalf("follower refused t_read %d at or below observed t_safe %d", tread, lastApplied)
		}
	}
	wg.Wait()
}

// TestRouteSkipsLaggingFollower: with a zero lag budget the router only
// offers followers whose acknowledged watermark already covers the read.
func TestRouteSkipsLaggingFollower(t *testing.T) {
	g := NewGroup(0, 2, Chaos{})
	defer g.Close()
	appendOne(g, EntryCommit, 1, 10, 10, []wire.KV{{Key: "k", Value: "v"}})
	for i := 0; i < g.Transports(); i++ {
		f := g.Transport(i)
		waitFor(t, "apply", func() bool { return f.Acked() >= 10 })
	}
	if f := g.Route(10, 0); f == nil {
		t.Fatal("no follower offered for a covered t_read")
	}
	if f := g.Route(11, 0); f != nil {
		t.Fatalf("follower offered for t_read above every acked watermark (acked %d)", f.Acked())
	}
	if f := g.Route(15, 5); f == nil {
		t.Fatal("no follower offered within the lag budget")
	}
}

// TestKilledFollowerFailsReads: Kill stops serving; the router stops
// offering the replica, reads fail over, and the leader keeps appending
// without blocking.
func TestKilledFollowerFailsReads(t *testing.T) {
	g := NewGroup(0, 1, Chaos{})
	defer g.Close()
	f := g.Transport(0)
	appendOne(g, EntryCommit, 1, 10, 10, []wire.KV{{Key: "k", Value: "v"}})
	waitFor(t, "apply", func() bool { return f.Acked() >= 10 })
	f.Kill()
	if g.Route(5, 0) != nil {
		t.Fatal("router offered a killed follower")
	}
	if _, ok, _ := f.Read(5, []string{"k"}, 50*time.Millisecond); ok {
		t.Fatal("killed follower served a read")
	}
	for i := 0; i < 2*entryBuffer; i++ {
		appendOne(g, EntryPrepare, uint64(i+2), 20, 19, nil)
	}
}

// TestDropAcksFreezesAdvertisedTSafe: with the ack path severed the
// replica keeps applying (stays correct) but stops advertising progress,
// so new reads route to the leader while covered ones remain servable.
func TestDropAcksFreezesAdvertisedTSafe(t *testing.T) {
	g := NewGroup(0, 1, Chaos{})
	defer g.Close()
	f := chanT(t, g, 0)
	appendOne(g, EntryCommit, 1, 10, 10, []wire.KV{{Key: "k", Value: "v1"}})
	waitFor(t, "apply", func() bool { return f.Acked() >= 10 })
	f.DropAcks()
	appendOne(g, EntryCommit, 2, 20, 20, []wire.KV{{Key: "k", Value: "v2"}})
	waitFor(t, "silent apply", func() bool { return f.TSafe() >= 20 })
	if f.Acked() != 10 {
		t.Fatalf("acked watermark advanced to %d after DropAcks", f.Acked())
	}
	if g.Route(20, 0) != nil {
		t.Fatal("router offered a follower whose acks are frozen below t_read")
	}
	// The replica itself is still consistent and serves covered reads.
	vals, ok, _ := f.Read(20, []string{"k"}, readTimeout)
	if !ok || vals[0].Value != "v2" {
		t.Fatalf("silent replica read = %+v ok=%v, want v2", vals, ok)
	}
}

// TestOverflowDetaches: a follower that stops draining is detached once
// its transport fills; the leader never blocks and the follower stops
// being routable instead of applying a gapped log.
func TestOverflowDetaches(t *testing.T) {
	g := NewGroup(0, 1, Chaos{})
	f := chanT(t, g, 0)
	// Wedge the follower's loop inside a control closure, so nothing
	// drains the entry channel: exactly entryBuffer offers fit, and the
	// next one must detach rather than block.
	parked, unwedge := make(chan struct{}), make(chan struct{})
	f.r.ctrl <- func() { close(parked); <-unwedge }
	<-parked
	defer close(unwedge)
	for i := 0; i < entryBuffer; i++ {
		appendOne(g, EntryCommit, uint64(i+1), truetime.Timestamp(i+1), truetime.Timestamp(i+1),
			[]wire.KV{{Key: "k", Value: "v"}})
	}
	if f.detached.Load() {
		t.Fatal("follower detached before its transport was full")
	}
	appendOne(g, EntryCommit, entryBuffer+1, entryBuffer+1, entryBuffer+1, []wire.KV{{Key: "k", Value: "v"}})
	if !f.detached.Load() {
		t.Fatal("follower not detached after transport overflow")
	}
	if g.Route(0, 1<<40) != nil {
		t.Fatal("router offered a detached follower")
	}
	// Close must not double-close the detached follower's channel.
	g.Close()
}

// TestChaosDelayedAppliesAcksEarly: under the delayed-applies fault the
// advertised t_safe leads the applied state and reads skip the park, which
// is exactly the lie the server-level chaos test relies on the checker to
// catch.
func TestChaosDelayedAppliesAcksEarly(t *testing.T) {
	g := NewGroup(0, 1, Chaos{DelayedApplies: true, ApplyDelay: 50 * time.Millisecond})
	defer g.Close()
	f := chanT(t, g, 0)
	appendOne(g, EntryCommit, 1, 10, 10, []wire.KV{{Key: "k", Value: "v1"}})
	waitFor(t, "early ack", func() bool { return f.Acked() >= 10 })
	vals, ok, _ := f.Read(10, []string{"k"}, readTimeout)
	if !ok {
		t.Fatal("chaos follower refused the routed read")
	}
	if vals[0].Value == "v1" {
		t.Skip("apply won the race; nothing to assert")
	}
	if vals[0].Value != "" {
		t.Fatalf("chaos read = %+v, want the stale (empty) pre-state", vals[0])
	}
	waitFor(t, "late apply", func() bool { return f.TSafe() >= 10 })
}

// pullStub is a minimal pull transport for exercising the group's log
// retention without sockets: the test moves its acknowledged position by
// hand.
type pullStub struct {
	ackedSeqV uint64
	ackedV    truetime.Timestamp
	deadV     bool
	mu        sync.Mutex
}

func (p *pullStub) Offer([]Entry) {}
func (p *pullStub) Pull() bool    { return true }
func (p *pullStub) Kind() string  { return "stub" }
func (p *pullStub) Read(truetime.Timestamp, []string, time.Duration) ([]Val, bool, bool) {
	return nil, false, false
}
func (p *pullStub) Acked() truetime.Timestamp {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ackedV
}
func (p *pullStub) AckedSeq() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ackedSeqV
}
func (p *pullStub) set(seq uint64, w truetime.Timestamp) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ackedSeqV, p.ackedV = seq, w
}
func (p *pullStub) Routable() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.deadV
}
func (p *pullStub) Alive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.deadV
}
func (p *pullStub) Kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.deadV = true
}
func (p *pullStub) DropAcks() {}
func (p *pullStub) Close()    {}

func appendN(g *Group, from, n int) {
	for i := from; i < from+n; i++ {
		ts := truetime.Timestamp(i * 10)
		appendOne(g, EntryCommit, uint64(i), ts, ts, []wire.KV{{Key: "k", Value: fmt.Sprintf("v%d", i)}})
	}
}

// TestLogRetentionTruncatesBelowAcks: with a pull replica attached the
// group retains exactly the unacknowledged suffix — entries below the
// replica's acknowledged position are dropped eagerly, and a pull below
// the suffix reports that a snapshot is required.
func TestLogRetentionTruncatesBelowAcks(t *testing.T) {
	g := NewGroup(7, 0, Chaos{})
	defer g.Close()
	st := &pullStub{}
	g.Attach(st)
	appendN(g, 1, 10)
	es, ok := g.EntriesAfter(0, 100)
	if !ok || len(es) != 10 || es[0].Seq != 1 {
		t.Fatalf("EntriesAfter(0) = %d entries ok=%v, want 10 from seq 1", len(es), ok)
	}
	// Acknowledge through 6; the next append may drop 1..6.
	st.set(6, 60)
	appendN(g, 11, 1)
	if _, ok := g.EntriesAfter(0, 100); ok {
		t.Fatal("entries below the acked position still served after truncation")
	}
	if _, ok := g.EntriesAfter(5, 100); ok {
		t.Fatal("pull from inside the truncated prefix did not demand a snapshot")
	}
	es, ok = g.EntriesAfter(6, 100)
	if !ok || len(es) != 5 || es[0].Seq != 7 {
		t.Fatalf("EntriesAfter(6) = %d entries ok=%v (first %d), want 5 from seq 7", len(es), ok, es[0].Seq)
	}
}

// TestLogRetentionHardCap: a replica that stops acknowledging cannot pin
// the log past the retention cap — the leader truncates anyway and the
// replica is sent to the snapshot path.
func TestLogRetentionHardCap(t *testing.T) {
	g := NewGroup(7, 0, Chaos{})
	defer g.Close()
	g.SetRetain(8)
	st := &pullStub{}
	g.Attach(st)
	appendN(g, 1, 40) // stuck replica: acked stays 0
	if es, ok := g.EntriesAfter(0, 100); ok {
		t.Fatalf("stuck replica still offered %d entries past the cap", len(es))
	}
	es, ok := g.EntriesAfter(32, 100)
	if !ok || len(es) != 8 {
		t.Fatalf("capped suffix = %d entries ok=%v, want exactly 8", len(es), ok)
	}
	// A killed pull replica stops holding the log at all.
	st.set(32, 320)
	st.Kill()
	appendN(g, 41, 1)
	if _, ok := g.EntriesAfter(32, 100); ok {
		t.Fatal("dead replica's position still pinned the log")
	}
}

// TestWaitEntriesLongPoll: a caught-up pull parks until the next append
// instead of spinning on empty batches.
func TestWaitEntriesLongPoll(t *testing.T) {
	g := NewGroup(7, 0, Chaos{})
	defer g.Close()
	g.Attach(&pullStub{})
	appendN(g, 1, 3)
	type res struct {
		es []Entry
		ok bool
	}
	done := make(chan res, 1)
	go func() {
		es, _, ok := g.WaitEntriesAfter(3, 100, time.Second)
		done <- res{es, ok}
	}()
	select {
	case <-done:
		t.Fatal("caught-up pull returned before the next append")
	case <-time.After(20 * time.Millisecond):
	}
	appendN(g, 4, 1)
	select {
	case r := <-done:
		if !r.ok || len(r.es) != 1 || r.es[0].Seq != 4 {
			t.Fatalf("woken pull = %+v ok=%v, want entry 4", r.es, r.ok)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pull not woken by append")
	}
	// With nothing appended the poll times out into an empty OK batch
	// carrying the newest watermark (the synthetic-heartbeat channel).
	es, wm, ok := g.WaitEntriesAfter(4, 100, 10*time.Millisecond)
	if !ok || len(es) != 0 {
		t.Fatalf("timed-out poll = %d entries ok=%v, want empty ok", len(es), ok)
	}
	if wm != 40 {
		t.Fatalf("empty poll watermark = %d, want 40 (entry 4's)", wm)
	}
}

// TestPullAheadOfLogForcesSnapshot: a follower claiming a position this
// log never reached (it outlived a leader restart) is sent through the
// snapshot path — answering "caught up" would hand it fresh watermarks
// over a store missing every post-restart commit.
func TestPullAheadOfLogForcesSnapshot(t *testing.T) {
	g := NewGroup(7, 0, Chaos{})
	defer g.Close()
	g.Attach(&pullStub{})
	appendN(g, 1, 3)
	if _, ok := g.EntriesAfter(3, 100); !ok {
		t.Fatal("pull at the exact head refused")
	}
	if _, ok := g.EntriesAfter(4, 100); ok {
		t.Fatal("pull ahead of the log answered as caught up instead of demanding a snapshot")
	}
	if _, _, ok := g.WaitEntriesAfter(4000, 100, 10*time.Millisecond); ok {
		t.Fatal("long-poll ahead of the log answered as caught up")
	}
}

// TestHeartbeatsNotRetained: heartbeats advance watermarks on push
// transports and on empty pull responses, but are never sequenced or
// retained — the retention cap counts real history only.
func TestHeartbeatsNotRetained(t *testing.T) {
	g := NewGroup(7, 1, Chaos{})
	defer g.Close()
	g.Attach(&pullStub{})
	appendN(g, 1, 3) // data entries 1..3, watermarks 10..30
	for i := 0; i < 100; i++ {
		appendOne(g, EntryHeartbeat, 0, 0, truetime.Timestamp(1000+i), nil)
	}
	if got := g.NextSeq(); got != 3 {
		t.Fatalf("heartbeats consumed sequence numbers: nextSeq = %d, want 3", got)
	}
	es, wm, ok := g.WaitEntriesAfter(3, 100, 10*time.Millisecond)
	if !ok || len(es) != 0 {
		t.Fatalf("caught-up pull after heartbeats = %d entries ok=%v, want empty ok", len(es), ok)
	}
	if wm != 1099 {
		t.Fatalf("empty pull watermark = %d, want 1099 (latest heartbeat)", wm)
	}
	// The push follower's t_safe tracked the heartbeats too.
	f := chanT(t, g, 0)
	waitFor(t, "push heartbeat apply", func() bool { return f.TSafe() >= 1099 })
	if got := f.AckedSeq(); got != 3 {
		t.Fatalf("push follower acked seq = %d after heartbeats, want 3", got)
	}
}

// TestDetachRestoresUnreplicatedCheapPath: detaching the last transport
// turns the group inactive and drops the retained log, so an idle group
// costs nothing per append.
func TestDetachRestoresUnreplicatedCheapPath(t *testing.T) {
	g := NewGroup(7, 0, Chaos{})
	defer g.Close()
	st := &pullStub{}
	g.Attach(st)
	if !g.Active() {
		t.Fatal("group with a transport reports inactive")
	}
	appendN(g, 1, 5)
	if !g.Detach(st) {
		t.Fatal("Detach did not find the attached transport")
	}
	if g.Active() {
		t.Fatal("group without transports reports active")
	}
	appendN(g, 6, 1)
	if _, ok := g.EntriesAfter(0, 100); ok {
		t.Fatal("log retained with no pull replicas attached")
	}
	// A fresh joiner starts from a snapshot, then receives new entries.
	st2 := &pullStub{}
	g.Attach(st2)
	st2.set(g.NextSeq(), 0) // as a snapshot install would
	appendN(g, 7, 2)
	es, ok := g.EntriesAfter(6, 100)
	if !ok || len(es) != 2 {
		t.Fatalf("rejoined pull = %d entries ok=%v, want 2", len(es), ok)
	}
}
