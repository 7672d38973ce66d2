package server

import (
	"testing"
	"time"

	"rsskv/internal/kvclient"
	"rsskv/internal/truetime"
	"rsskv/internal/wire"
)

// These tests drive the shard-level t_safe machinery directly: they inject
// prepared-set entries through the apply loop, exactly where a two-phase
// commit's prepare phase installs them, and check the blocking rule of §5
// (Algorithm 2 line 6) and the coordinator's t_snap handling (Algorithm 1)
// without depending on racing a real 2PC into its prepare window.

func newTestServer(t *testing.T, cfg Config) (*Server, *kvclient.Client) {
	t.Helper()
	srv := New(cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(srv.Close)
	cl, err := kvclient.Dial(srv.Addr(), kvclient.Options{Conns: 1})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(cl.Close)
	return srv, cl
}

// inject runs fn on key's shard loop and waits for it.
func inject(t *testing.T, srv *Server, key string, fn func(s *shard)) {
	t.Helper()
	s := srv.shardFor(key)
	done := make(chan struct{})
	if !s.run(func() { fn(s); close(done) }) {
		t.Fatal("shard loop closed")
	}
	<-done
}

// TestROBlocksOnFinishedPreparer: a conflicting preparer whose advertised
// earliest end time has passed (t_ee ≤ t_read) may already be finished, so
// the snapshot read must wait for its resolution — serving before it would
// let a completed write go missing from the snapshot.
func TestROBlocksOnFinishedPreparer(t *testing.T) {
	srv, cl := newTestServer(t, Config{Shards: 2})
	if _, err := cl.Put("k", "v1"); err != nil {
		t.Fatal(err)
	}
	const txnID = 7777
	var tp truetime.Timestamp
	inject(t, srv, "k", func(s *shard) {
		tp = s.nextTS()
		s.prepared[txnID] = &prepEntry{tp: tp, tee: 1, writes: []wire.KV{{Key: "k", Value: "v2"}}}
	})

	roDone := make(chan map[string]string, 1)
	roErr := make(chan error, 1)
	go func() {
		vals, _, err := cl.ReadOnly("k")
		roErr <- err
		roDone <- vals
	}()
	select {
	case <-roDone:
		t.Fatal("snapshot read returned while a conflicting preparer with past t_ee was unresolved")
	case <-time.After(50 * time.Millisecond):
	}
	tc := tp + 1
	inject(t, srv, "k", func(s *shard) {
		s.store.Write("k", "v2", tc)
		if tc > s.maxTS {
			s.maxTS = tc
		}
		s.resolvePrepared(txnID, true, tc)
	})
	if err := <-roErr; err != nil {
		t.Fatal(err)
	}
	if vals := <-roDone; vals["k"] != "v2" {
		t.Fatalf("after resolution, snapshot read k = %q, want \"v2\"", vals["k"])
	}
	if got := srv.stats.ROBlocked.Load(); got == 0 {
		t.Error("ROBlocked stat not incremented")
	}
}

// TestROSkipsConcurrentPreparer: a preparer that is neither causally
// required (t_p > t_min) nor possibly finished (t_ee > t_read) is skipped
// — the read returns the pre-state immediately instead of waiting out the
// concurrent commit, which is the RSS latency win of §5.
func TestROSkipsConcurrentPreparer(t *testing.T) {
	srv, cl := newTestServer(t, Config{Shards: 2})
	if _, err := cl.Put("k", "v1"); err != nil {
		t.Fatal(err)
	}
	const txnID = 7778
	farFuture := srv.clock.Now().Latest + truetime.Timestamp(time.Hour)
	inject(t, srv, "k", func(s *shard) {
		s.prepared[txnID] = &prepEntry{tp: s.nextTS(), tee: farFuture, writes: []wire.KV{{Key: "k", Value: "v2"}}}
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		vals, _, err := cl.ReadOnly("k")
		if err != nil {
			t.Errorf("read-only: %v", err)
			return
		}
		if vals["k"] != "v1" {
			t.Errorf("snapshot read k = %q, want pre-state \"v1\"", vals["k"])
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("snapshot read blocked on a skippable preparer")
	}
	if got := srv.stats.ROSkips.Load(); got == 0 {
		t.Error("ROSkips stat not incremented")
	}
	// Clean up the injected entry so Close does not strand state.
	inject(t, srv, "k", func(s *shard) { s.resolvePrepared(txnID, false, 0) })
}

// TestROFoldsSkippedCommitBelowTSnap: a skipped preparer whose t_p lands
// at or below the snapshot timestamp could commit inside the snapshot, so
// the coordinator must wait for its outcome and fold the committed write
// in (Algorithm 1 lines 9–12, §6 optimization 1).
func TestROFoldsSkippedCommitBelowTSnap(t *testing.T) {
	srv, cl := newTestServer(t, Config{Shards: 2})
	if _, err := cl.Put("k", "v1"); err != nil {
		t.Fatal(err)
	}
	// Preparer on k, concurrent (t_ee in the future), t_p drawn now.
	const txnID = 7779
	var tp truetime.Timestamp
	farFuture := srv.clock.Now().Latest + truetime.Timestamp(time.Hour)
	inject(t, srv, "k", func(s *shard) {
		tp = s.nextTS()
		s.prepared[txnID] = &prepEntry{tp: tp, tee: farFuture, writes: []wire.KV{{Key: "k", Value: "v2"}}}
	})
	// A later write on another key pushes t_snap above t_p, forcing the
	// coordinator to consult the skipped preparer's outcome.
	if _, err := cl.Put("other", "x"); err != nil {
		t.Fatal(err)
	}
	roDone := make(chan map[string]string, 1)
	go func() {
		vals, _, err := cl.ReadOnly("k", "other")
		if err != nil {
			t.Errorf("read-only: %v", err)
		}
		roDone <- vals
	}()
	select {
	case <-roDone:
		t.Fatal("snapshot read returned before the skipped preparer below t_snap resolved")
	case <-time.After(50 * time.Millisecond):
	}
	tc := tp + 1 // inside the snapshot: t_p < t_c ≤ t_snap
	inject(t, srv, "k", func(s *shard) {
		s.store.Write("k", "v2", tc)
		if tc > s.maxTS {
			s.maxTS = tc
		}
		s.resolvePrepared(txnID, true, tc)
	})
	if vals := <-roDone; vals["k"] != "v2" || vals["other"] != "x" {
		t.Fatalf("snapshot read = %v, want k=v2 other=x", vals)
	}
}

// TestROAbortedPreparerIgnored: a skipped preparer that aborts contributes
// nothing; the snapshot keeps the pre-state.
func TestROAbortedPreparerIgnored(t *testing.T) {
	srv, cl := newTestServer(t, Config{Shards: 2})
	if _, err := cl.Put("k", "v1"); err != nil {
		t.Fatal(err)
	}
	const txnID = 7780
	farFuture := srv.clock.Now().Latest + truetime.Timestamp(time.Hour)
	inject(t, srv, "k", func(s *shard) {
		s.prepared[txnID] = &prepEntry{tp: s.nextTS(), tee: farFuture, writes: []wire.KV{{Key: "k", Value: "v2"}}}
	})
	if _, err := cl.Put("other", "x"); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		inject(t, srv, "k", func(s *shard) { s.resolvePrepared(txnID, false, 0) })
	}()
	vals, _, err := cl.ReadOnly("k", "other")
	if err != nil {
		t.Fatal(err)
	}
	if vals["k"] != "v1" {
		t.Fatalf("snapshot read k = %q after aborted preparer, want \"v1\"", vals["k"])
	}
}

// TestSafeTimePromise: serving a snapshot read at t_read promises that no
// later commit lands at or below t_read — the shard's next timestamp must
// exceed the read timestamp it served.
func TestSafeTimePromise(t *testing.T) {
	srv, cl := newTestServer(t, Config{Shards: 1})
	if _, err := cl.Put("k", "v1"); err != nil {
		t.Fatal(err)
	}
	_, snap, err := cl.ReadOnly("k")
	if err != nil {
		t.Fatal(err)
	}
	ver, err := cl.Put("k", "v2")
	if err != nil {
		t.Fatal(err)
	}
	// snap is t_snap (≤ t_read); the promise is about t_read, so check
	// against the shard's floor directly as well.
	if ver <= snap {
		t.Fatalf("commit timestamp %d not above earlier snapshot %d", ver, snap)
	}
	var floor truetime.Timestamp
	inject(t, srv, "k", func(s *shard) { floor = s.maxTS })
	if truetime.Timestamp(ver) > floor {
		t.Fatalf("applied commit %d above shard floor %d", ver, floor)
	}
}

// TestROReadAtExactCommitTimestamp pins the ≤ boundary on the server's
// snapshot-read path: a read whose t_read equals a version's commit
// timestamp includes that version, and one just below excludes it.
func TestROReadAtExactCommitTimestamp(t *testing.T) {
	srv, cl := newTestServer(t, Config{Shards: 1})
	ver, err := cl.Put("k", "v1")
	if err != nil {
		t.Fatal(err)
	}
	read := func(tread truetime.Timestamp) roShardReply {
		reply := make(chan roShardReply, 1)
		w := &roWaiter{keys: []string{"k"}, tread: tread, reply: reply, join: new(exposureJoin)}
		inject(t, srv, "k", func(s *shard) { s.roRead(w) })
		return <-reply
	}
	at := read(truetime.Timestamp(ver))
	if at.vals[0].value != "v1" || at.vals[0].ts != truetime.Timestamp(ver) {
		t.Errorf("read at commit timestamp = %+v, want v1@%d", at.vals[0], ver)
	}
	below := read(truetime.Timestamp(ver) - 1)
	if below.vals[0].value != "" || below.vals[0].ts != 0 {
		t.Errorf("read below commit timestamp = %+v, want zero version", below.vals[0])
	}
}

// TestROFutureTMinRejected: every timestamp an honest session can hold was
// minted by this server and has passed, so a t_min ahead of the server
// clock is a protocol violation. It must be rejected — honoring it would
// drag the shard safe-time floors into the future and stall every later
// write in commit wait (a single-frame denial of service).
func TestROFutureTMinRejected(t *testing.T) {
	srv, cl := newTestServer(t, Config{Shards: 2})
	if _, err := cl.Put("k", "v1"); err != nil {
		t.Fatal(err)
	}
	farFuture := int64(srv.clock.Now().Latest) + int64(time.Hour)
	resp, err := cl.Do(&wire.Request{Op: wire.OpROTxn, Keys: []string{"k"}, TMin: farFuture})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Fatal("snapshot read with far-future t_min accepted")
	}
	// The shards' timestamp floors must be unpoisoned: an immediate write
	// completes without commit-waiting into the future.
	done := make(chan error, 1)
	go func() {
		_, err := cl.Put("k", "v2")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write stalled after rejected future-t_min read")
	}
}

// TestROLaggingFollowerForcesLeaderFallback: the routing half of the
// replicated t_safe discipline. A follower whose advertised watermark
// trails t_read by more than the lag budget must not be offered the read;
// the coordinator serves it at the leader instead, and the read still
// reflects every completed write.
func TestROLaggingFollowerForcesLeaderFallback(t *testing.T) {
	srv, cl := newTestServer(t, Config{Shards: 2, Replicas: 2})
	if _, err := cl.Put("k", "v1"); err != nil {
		t.Fatal(err)
	}
	// Freeze every follower's advertised t_safe: from the router's view
	// they lag further behind each passing moment.
	for i := 0; i < srv.Replicas()-1; i++ {
		if !srv.DropReplicaAcks(i) {
			t.Fatalf("no follower %d to freeze", i)
		}
	}
	// Let the frozen watermarks fall out of the lag budget.
	time.Sleep(srv.cfg.FollowerReadTimeout + 2*time.Millisecond)
	if _, err := cl.Put("k", "v2"); err != nil {
		t.Fatal(err)
	}
	followerBefore := srv.stats.ROFollower.Load()
	vals, _, err := cl.ReadOnly("k")
	if err != nil {
		t.Fatal(err)
	}
	if vals["k"] != "v2" {
		t.Fatalf("leader-fallback read k = %q, want \"v2\"", vals["k"])
	}
	if got := srv.stats.ROFollower.Load(); got != followerBefore {
		t.Errorf("lagging follower served the read (%d -> %d)", followerBefore, got)
	}
	if srv.stats.ROFallback.Load() == 0 {
		t.Error("no leader fallback recorded for the lagging follower")
	}
}

// TestROSmallTMinLeadWaitedOut: a t_min slightly ahead of the server
// clock (cross-server skew, §4.2) is waited out, not rejected.
func TestROSmallTMinLeadWaitedOut(t *testing.T) {
	srv, cl := newTestServer(t, Config{Shards: 2})
	if _, err := cl.Put("k", "v1"); err != nil {
		t.Fatal(err)
	}
	ahead := int64(srv.clock.Now().Latest) + int64(5*time.Millisecond)
	resp, err := cl.Do(&wire.Request{Op: wire.OpROTxn, Keys: []string{"k"}, TMin: ahead})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("small t_min lead rejected: %s", resp.Err)
	}
	if len(resp.KVs) != 1 || resp.KVs[0].Value != "v1" {
		t.Fatalf("snapshot read after skew wait = %v, want k=v1", resp.KVs)
	}
}
