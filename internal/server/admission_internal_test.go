package server

import (
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rsskv/internal/wal"
	"rsskv/internal/wire"
)

// TestApplyBatchMaxClampedAtConfigTime is the -apply-batch regression
// test: no flag value may reach the shard drain loop unusable. Zero means
// "use the default" (64); an explicit negative is an operator asking for
// the smallest batch and clamps to 1 — never silently promoted to the
// default; positives pass through.
func TestApplyBatchMaxClampedAtConfigTime(t *testing.T) {
	cases := []struct{ in, want int }{
		{-5, 1},
		{-1, 1},
		{0, 64},
		{1, 1},
		{7, 7},
	}
	for _, c := range cases {
		srv, _ := newTestServer(t, Config{Shards: 1, ApplyBatchMax: c.in})
		if got := srv.cfg.ApplyBatchMax; got != c.want {
			t.Errorf("ApplyBatchMax %d clamps to %d, want %d", c.in, got, c.want)
		}
	}
}

// TestAdmissionRejectLeavesZeroFootprint is the admission layer's
// property test: under a hostile burst far past the configured budget,
// every rejected transaction is answered as a first-class Overloaded
// outcome and leaves zero footprint — its keys acquire no locks, land in
// no WAL record, and reach no replication entry. A reject is an operation
// that never happened, which is what keeps the recorded history RSS (the
// end-to-end history check under admission rides in the loadgen overload
// test; this test pins the server-side invariant it relies on).
func TestAdmissionRejectLeavesZeroFootprint(t *testing.T) {
	dataDir := t.TempDir()
	srv, _ := newTestServer(t, Config{
		Shards:   1,
		Replicas: 2,
		DataDir:  dataDir,
		// A starved budget: ~1 admission/s of refill over a burst floor of
		// 16 tokens, a 2-deep delay queue, and a deadline too short for
		// the baseline refill to matter. The burst below must overwhelm it.
		AdmitQPS:      1,
		AdmitQueue:    2,
		AdmitDeadline: 2 * time.Millisecond,
	})
	s := srv.shards[0]
	capt := &captureTransport{}
	s.repl.Attach(capt)

	// The hostile burst: pipelined one-shot commits, each writing one
	// unique key, all racing the gate at once.
	const burst = 120
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	for i := 1; i <= burst; i++ {
		req := &wire.Request{
			ID: uint64(i), Op: wire.OpCommit,
			KVs: []wire.KV{{Key: admKey(i), Value: "v"}},
		}
		if err := wire.WriteRequest(nc, req); err != nil {
			t.Fatalf("write request %d: %v", i, err)
		}
	}
	admitted := map[int]bool{}
	rejected := map[int]bool{}
	for n := 0; n < burst; n++ {
		resp, err := wire.ReadResponse(nc, wire.MaxFrame)
		if err != nil {
			t.Fatalf("read response %d: %v", n, err)
		}
		id := int(resp.ID)
		switch {
		case resp.Err == "":
			admitted[id] = true
		case resp.Err == wire.ErrMsgOverloaded:
			if !resp.Overloaded {
				t.Fatalf("request %d: overloaded error without the Overloaded flag", id)
			}
			if resp.RetryAfterUS <= 0 {
				t.Fatalf("request %d: rejected with no retry-after hint", id)
			}
			rejected[id] = true
		default:
			t.Fatalf("request %d: unexpected error %q", id, resp.Err)
		}
	}
	if len(admitted) == 0 {
		t.Fatal("burst fully rejected: the token-bucket burst floor admitted nothing")
	}
	if len(rejected) < burst/2 {
		t.Fatalf("only %d/%d rejected: the burst did not overwhelm the starved gate", len(rejected), burst)
	}
	if got := srv.stats.AdmitRejects.Load(); got != int64(len(rejected)) {
		t.Errorf("stats count %d rejects, wire saw %d", got, len(rejected))
	}

	// Locks: after the burst settles, the lock table must hold no burst
	// key at all — admitted transactions released theirs, rejected ones
	// never acquired any.
	var dump strings.Builder
	done := make(chan struct{})
	if !s.run(func() {
		s.lm.DebugDump(func(format string, args ...any) {
			fmt.Fprintf(&dump, format+"\n", args...)
		})
		close(done)
	}) {
		t.Fatal("shard loop closed")
	}
	<-done
	if strings.Contains(dump.String(), `key "adm-`) {
		t.Errorf("burst keys still in the lock table:\n%s", dump.String())
	}

	// Replication: no rejected key may appear in any offered entry; every
	// admitted key must (otherwise the scan proves nothing). Two no-op
	// round trips first, so the burst's final batch has flushed.
	for i := 0; i < 2; i++ {
		rt := make(chan struct{})
		if !s.run(func() { close(rt) }) {
			t.Fatal("shard loop closed")
		}
		<-rt
	}
	replKeys := map[string]bool{}
	for _, batch := range capt.snapshot() {
		for _, e := range batch {
			for _, kv := range e.Writes {
				replKeys[kv.Key] = true
			}
		}
	}
	checkFootprint(t, "replication log", replKeys, admitted, rejected)

	// WAL: close the server cleanly, recover the shard's log, and scan
	// every durable record the same way.
	srv.Close()
	l, rec, err := wal.Open(wal.Config{Dir: filepath.Join(dataDir, "shard-0000")})
	if err != nil {
		t.Fatalf("reopen wal: %v", err)
	}
	defer l.Close()
	walKeys := map[string]bool{}
	for _, r := range rec.Records {
		for _, kv := range r.Writes {
			walKeys[kv.Key] = true
		}
	}
	checkFootprint(t, "WAL", walKeys, admitted, rejected)
}

func admKey(i int) string { return fmt.Sprintf("adm-%03d", i) }

// checkFootprint asserts a durable key set contains every admitted burst
// key and no rejected one.
func checkFootprint(t *testing.T, where string, keys map[string]bool, admitted, rejected map[int]bool) {
	t.Helper()
	for id := range admitted {
		if !keys[admKey(id)] {
			t.Errorf("%s: admitted key %s missing", where, admKey(id))
		}
	}
	for id := range rejected {
		if keys[admKey(id)] {
			t.Errorf("%s: rejected key %s present — rejection left a footprint", where, admKey(id))
		}
	}
}

// TestAdmissionStallSignalAges: the gate must not latch shut. One slow
// fsync lifts the EWMA past admitStallFsync; with every writer then parked
// on the gate no write reaches the shard, so no further sample can ever
// bring the average down — the signal has to fade with time alone, and a
// parked arrival has to notice without any completion or other arrival to
// wake it. (Before the fix stalled() stayed true forever and the parked
// admit ran into its deadline.)
func TestAdmissionStallSignalAges(t *testing.T) {
	srv, _ := newTestServer(t, Config{
		Shards:        1,
		AdmitQPS:      1000,
		AdmitQueue:    8,
		AdmitDeadline: 5 * time.Second,
	})
	g := srv.shards[0].gate
	g.noteFsync(200 * time.Millisecond)
	if !g.stalled() {
		t.Fatal("a 200ms fsync did not stall the gate: the test proves nothing")
	}
	granted := make(chan bool, 1)
	go func() {
		ok, _ := g.admit() // tokens are there; only the stall parks it
		granted <- ok
	}()
	// Nothing else is issued: no write, no fsync sample, no other arrival.
	start := time.Now()
	select {
	case ok := <-granted:
		if !ok {
			t.Fatal("the parked arrival was rejected instead of granted once the stall faded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("gate latched shut: a parked arrival was still waiting 2s after one slow fsync")
	}
	if g.stalled() {
		t.Errorf("stall signal still set %v after its only sample", time.Since(start))
	}
	if got := srv.stats.AdmitDelayed.Load(); got != 1 {
		t.Errorf("AdmitDelayed = %d, want 1: the arrival was meant to park on the stall", got)
	}
}
