package server

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"rsskv/internal/core"
	"rsskv/internal/history"
	"rsskv/internal/loadgen"
	"rsskv/internal/obs"
	"rsskv/internal/replication"
	"rsskv/internal/truetime"
	"rsskv/internal/wire"
)

// These tests pin the read floor: the registry that says which snapshot
// reads are still in flight (readFloor), and what the stores do with its
// word — drop, on write, every version no such read can return.

// inFlight returns the registry's pins, oldest first.
func (f *readFloor) inFlight() []truetime.Timestamp {
	f.mu.Lock()
	defer f.mu.Unlock()
	var pins []truetime.Timestamp
	for p := f.head; p != nil; p = p.next {
		pins = append(pins, p.ts)
	}
	return pins
}

// waitInFlight waits until exactly n reads are registered.
func waitInFlight(t *testing.T, srv *Server, n int) []truetime.Timestamp {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		if pins := srv.reads.inFlight(); len(pins) == n {
			return pins
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry holds %d reads, want %d", len(srv.reads.inFlight()), n)
		}
	}
}

func counter(srv *Server, name string) int64 {
	return obs.FindCounter(srv.metrics.reg.Snapshot(), name)
}

// parkRead injects a conflicting preparer that may already have finished
// (t_ee in the past) on key's shard and starts a snapshot read of key, which
// must park behind it. It returns the channel the read's outcome arrives on.
func parkRead(t *testing.T, srv *Server, key string, txnID uint64) <-chan error {
	t.Helper()
	inject(t, srv, key, func(s *shard) {
		s.prepared[txnID] = &prepEntry{tp: s.nextTS(), tee: 1, writes: []wire.KV{{Key: key, Value: "prepared"}}}
	})
	cl := dialClient(t, srv)
	done := make(chan error, 1)
	go func() {
		_, _, err := cl.ReadOnly(key)
		done <- err
	}()
	return done
}

// TestReadFloorPinnedByParkedRead: a read parked behind a prepared writer
// holds the floor at its t_read while later reads come and go and while the
// shards keep writing; when it is served the floor moves on.
func TestReadFloorPinnedByParkedRead(t *testing.T) {
	srv, cl := newTestServer(t, Config{Shards: 2})
	if _, err := cl.Put("k", "v1"); err != nil {
		t.Fatal(err)
	}
	const txnID = 8801
	parked := parkRead(t, srv, "k", txnID)
	pin := waitInFlight(t, srv, 1)[0]

	for i := 0; i < 50; i++ {
		other := fmt.Sprintf("other-%d", i)
		if _, err := cl.Put(other, "x"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.ReadOnly(other); err != nil {
			t.Fatal(err)
		}
	}
	if pins := waitInFlight(t, srv, 1); pins[0] != pin {
		t.Fatalf("the parked read's pin moved: %d, was %d", pins[0], pin)
	}
	if f := srv.reads.floor(); f != pin {
		t.Errorf("floor %d with a read parked at %d", f, pin)
	}
	for _, s := range srv.shards {
		got := make(chan truetime.Timestamp, 1)
		s.run(func() { got <- s.floor })
		if f := <-got; f > pin {
			t.Errorf("shard %d advanced its store to %d, past the parked read at %d", s.id, f, pin)
		}
	}

	inject(t, srv, "k", func(s *shard) { s.resolvePrepared(txnID, false, 0) })
	if err := <-parked; err != nil {
		t.Fatalf("parked read: %v", err)
	}
	waitInFlight(t, srv, 0)
	if f := srv.reads.floor(); f <= pin {
		t.Errorf("floor %d did not move past the served read's %d", f, pin)
	}
	if n := counter(srv, "ro.below_floor"); n != 0 {
		t.Errorf("ro.below_floor = %d", n)
	}
}

// TestReadFloorReleasedOnClose: a read abandoned because the server closes
// under it leaves the registry, once. (Close waits for the reads of open
// connections; the one it abandons here was started beside them.)
func TestReadFloorReleasedOnClose(t *testing.T) {
	srv, cl := newTestServer(t, Config{Shards: 2})
	if _, err := cl.Put("k", "v1"); err != nil {
		t.Fatal(err)
	}
	inject(t, srv, "k", func(s *shard) {
		s.prepared[8802] = &prepEntry{tp: s.nextTS(), tee: 1, writes: []wire.KV{{Key: "k", Value: "prepared"}}}
	})
	near, far := net.Pipe()
	go io.Copy(io.Discard, far)
	cw := newConnWriter(near)
	returned := make(chan struct{})
	go func() {
		srv.readOnly(&wire.Request{ID: 1, Op: wire.OpROTxn, Keys: []string{"k"}}, cw)
		close(returned)
	}()
	waitInFlight(t, srv, 1)
	srv.Close()
	<-returned
	cw.Close()
	far.Close()
	if pins := srv.reads.inFlight(); len(pins) != 0 {
		t.Errorf("registry still holds %d reads after Close", len(pins))
	}
}

// stuckTransport is a follower the router always picks and that never
// answers: every read routed to it burns its timeout and is abandoned.
type stuckTransport struct{ captureTransport }

func (*stuckTransport) Routable() bool            { return true }
func (*stuckTransport) Acked() truetime.Timestamp { return 1 << 62 }
func (*stuckTransport) Read(_ truetime.Timestamp, _ []string, timeout time.Duration) ([]replication.Val, bool, bool) {
	time.Sleep(timeout)
	return nil, false, true
}

// TestReadFloorReleasedAfterFollowerTimeout: a read whose follower portion
// times out stays registered through its leader fallback — the floor cannot
// pass it while the leader serves it — and leaves once, though its scratch
// is not pooled again.
func TestReadFloorReleasedAfterFollowerTimeout(t *testing.T) {
	srv, cl := newTestServer(t, Config{Shards: 1, AllowReplicaJoin: true, FollowerReadTimeout: 20 * time.Millisecond})
	if _, err := cl.Put("k", "v1"); err != nil {
		t.Fatal(err)
	}
	srv.shards[0].repl.Attach(&stuckTransport{})

	type result struct {
		vals map[string]string
		err  error
	}
	done := make(chan result, 1)
	go func() {
		vals, _, err := cl.ReadOnly("k")
		done <- result{vals, err}
	}()
	pin := waitInFlight(t, srv, 1)[0]
	if _, err := dialClient(t, srv).Put("k", "v2"); err != nil { // drains that trim while the follower sits on the read
		t.Fatal(err)
	}
	if f := srv.reads.floor(); f != pin {
		t.Errorf("floor %d while the routed read at %d is in flight", f, pin)
	}
	r := <-done
	if r.err != nil || r.vals["k"] != "v1" {
		t.Fatalf("fallback read = %v, %v; want k=v1, the version at its t_read", r.vals, r.err)
	}
	waitInFlight(t, srv, 0)
	if srv.stats.ROFallback.Load() == 0 {
		t.Error("no leader fallback recorded")
	}
	if n := counter(srv, "ro.below_floor"); n != 0 {
		t.Errorf("ro.below_floor = %d", n)
	}
	if _, _, err := cl.ReadOnly("k"); err != nil { // the registry still links and unlinks
		t.Fatal(err)
	}
	waitInFlight(t, srv, 0)
}

// boundedWorkload is a contended mix on 64 keys: read-write transactions
// and single-key writes that keep rewriting them, snapshot reads beside.
func boundedWorkload(addr, prefix string, seed int64) loadgen.Config {
	return loadgen.Config{
		Addr:         addr,
		Clients:      8,
		OpsPerClient: 600,
		Keys:         64,
		KeyPrefix:    prefix,
		TxnFrac:      0.35,
		ROFrac:       0.35,
		Seed:         seed,
	}
}

// maxChain is the bound TestBoundedChains puts on every chain once the run
// is over: the newest version at or below the floor plus the few written
// since the oldest read then in flight began. Without trimming the hot keys
// of this run end with hundreds.
const maxChain = 16

// TestBoundedChains is the accept/reject twin for the read floor. With the
// floor the registry reports, a contended run on 64 keys — in memory,
// durable, and with followers serving reads — is RSS-accepted, no read
// reaches a store below its floor, and every chain ends short. The same run
// with the floor reported 10 ms ahead of the clock trims versions that reads
// in flight still need, and the checker must say so.
func TestBoundedChains(t *testing.T) {
	variants := []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"mem", func(*testing.T) Config { return Config{Shards: 4} }},
		{"durable", func(t *testing.T) Config { return Config{Shards: 4, DataDir: t.TempDir(), CheckpointBytes: 64 << 10} }},
		{"replicated", func(t *testing.T) Config {
			return Config{Shards: 4, Replicas: 3, SyncRepl: true, DataDir: t.TempDir()}
		}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			run := func(floorAhead time.Duration) (*Server, error) {
				srv := New(v.cfg(t))
				if err := srv.Start("127.0.0.1:0"); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(srv.Close)
				srv.reads.mu.Lock()
				srv.reads.lag -= truetime.Timestamp(floorAhead)
				srv.reads.mu.Unlock()
				res, err := loadgen.Run(boundedWorkload(srv.Addr(), "bounded", 31))
				if err != nil {
					return srv, err
				}
				return srv, history.Check(res.H, core.RSS)
			}

			srv, err := run(0)
			if err != nil {
				t.Fatalf("bounded run is not RSS: %v", err)
			}
			if n := counter(srv, "ro.below_floor"); n != 0 {
				t.Errorf("ro.below_floor = %d on a run with the right floor", n)
			}
			if counter(srv, "mvstore.trimmed") == 0 {
				t.Error("mvstore.trimmed = 0: nothing was collected")
			}
			if v.name == "replicated" && srv.stats.ROFollower.Load() == 0 {
				t.Error("no snapshot-read portions served by followers")
			}
			longest := 0
			for i := 0; i < 64; i++ {
				key := fmt.Sprintf("bounded-%d", i)
				inject(t, srv, key, func(s *shard) {
					if n := s.store.Versions(key); n > longest {
						longest = n
					}
				})
			}
			if longest > maxChain {
				t.Errorf("longest chain holds %d versions, want at most %d", longest, maxChain)
			}
			t.Logf("longest chain %d, trimmed %d, follower portions %d",
				longest, counter(srv, "mvstore.trimmed"), srv.stats.ROFollower.Load())

			broken, err := run(10 * time.Millisecond)
			if err == nil {
				t.Error("checker accepted a run whose stores were trimmed 10 ms ahead of the clock")
			} else {
				t.Logf("floor 10 ms ahead, rejected: %v", err)
			}
			if counter(broken, "ro.below_floor") == 0 {
				t.Error("ro.below_floor stayed 0 with the floor ahead of every read")
			}
		})
	}
}
