//go:build !race

package server

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"rsskv/internal/kvclient"
	"rsskv/internal/wire"
)

// discardConn is a connection whose writes go nowhere: a sink for the
// responses of requests this file runs through the coordinators directly.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }
func (discardConn) Close() error                     { return nil }

// keysOnDistinctShards returns n keys with the given prefix, each owned by
// a different shard.
func keysOnDistinctShards(t *testing.T, srv *Server, prefix string, n int) []string {
	t.Helper()
	var keys []string
	taken := map[int]bool{}
	for i := 0; len(keys) < n; i++ {
		if i > 10_000 {
			t.Fatalf("no %d keys on distinct shards", n)
		}
		k := fmt.Sprintf("%s%08d", prefix, i)
		if sid := srv.shardFor(k).id; !taken[sid] {
			taken[sid] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// mallocsPer runs fn n times and returns the heap objects allocated per
// run, process-wide — so the shard loops' share is counted too.
func mallocsPer(n int, fn func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// TestCoordinatorAllocs pins what the two coordinators cost in heap
// objects once the request is decoded, on an in-memory server, for a
// transaction and a snapshot read that each span three shards. Their
// per-shard, per-phase state lives in the pooled plan and scratch, so what
// is left is what must outlive the request or leave with the response.
//
// Measured with this same test at the parent commit (a closure and a waiter
// per shard and phase, result slices and three result maps per transaction,
// a lock state and a holders array per key): 57.0 per runTxn, 12.7 per
// readOnly. Now 8.0 — per writing shard its write set and its prepared
// entry, which outlive the plan, plus the two result slices — and 3.0, the
// response and its two slices. The bounds are those plus 10 %.
func TestCoordinatorAllocs(t *testing.T) {
	srv, _ := newTestServer(t, Config{Shards: 4})
	reads := keysOnDistinctShards(t, srv, "r", 3)
	var writes []wire.KV
	for _, k := range keysOnDistinctShards(t, srv, "w", 3) {
		writes = append(writes, wire.KV{Key: k, Value: strings.Repeat("v", 32)})
	}
	rw := func() {
		if _, _, _, err := srv.runTxn(0, reads, writes); err != nil {
			t.Fatalf("runTxn: %v", err)
		}
	}
	cw := newConnWriter(discardConn{})
	defer cw.Close()
	req := &wire.Request{ID: 1, Op: wire.OpROTxn, Keys: reads}
	ro := func() { srv.readOnly(req, cw) }

	for _, c := range []struct {
		name string
		fn   func()
		max  float64
	}{
		{"three-shard runTxn", rw, 8.8},
		{"three-shard readOnly", ro, 3.3},
	} {
		mallocsPer(200, c.fn) // warm the pools, the lock tables' free lists, the store's chains
		if got := mallocsPer(1000, c.fn); got > c.max {
			t.Errorf("%s: %.1f heap objects per call, want at most %.1f", c.name, got, c.max)
		} else {
			t.Logf("%s: %.1f heap objects per call", c.name, got)
		}
	}
	if got := srv.stats.ROs.Load(); got != 1200 {
		t.Errorf("%d snapshot reads completed, want 1200", got)
	}
}

// TestRetentionFramesAreNotPinned: decoded keys are views into their
// frame's arena (package wire), so anything long-lived that kept one as
// given would keep the whole frame. 2 000 commits each read a 16 KiB
// padding key and write 32 bytes to a fresh key; once the clients are gone
// the live heap may have grown by what was written, not by the 32 MiB of
// frames that carried it. The second configuration adds what the first
// lacks: a log (a recovered group retains its replication log, keys and
// all, for replicas to catch up from) and an in-process follower — so a
// second store and 2 000 retained log entries, about a megabyte of data
// that is meant to stay, and a bound to match.
func TestRetentionFramesAreNotPinned(t *testing.T) {
	for _, c := range []struct {
		name  string
		cfg   func(t *testing.T) Config
		limit int64
	}{
		{"in-memory", func(*testing.T) Config { return Config{Shards: 2} }, 1 << 20},
		{"durable-replicated", func(t *testing.T) Config {
			return Config{Shards: 2, Replicas: 2, DataDir: t.TempDir()}
		}, 4 << 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv, err := Open(c.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			before := liveHeap()

			cl, err := kvclient.Dial(srv.Addr(), kvclient.Options{Conns: 2})
			if err != nil {
				t.Fatal(err)
			}
			const commits = 2000
			pad := strings.Repeat("p", 16<<10)
			for i := 0; i < commits; i++ {
				txn, err := cl.Begin()
				if err != nil {
					t.Fatal(err)
				}
				txn.Read(fmt.Sprintf("%s%06d", pad, i%7))
				txn.Write(fmt.Sprintf("fresh%08d", i), strings.Repeat("v", 32))
				if _, _, err := txn.Commit(); err != nil {
					t.Fatalf("commit %d: %v", i, err)
				}
			}
			if _, err := cl.Snapshot(pad+"000001", "fresh00000001"); err != nil {
				t.Fatal(err)
			}
			cl.Close() // drop all clients: the handlers and their buffers go with them

			grew := int64(liveHeap() - before)
			t.Logf("live heap grew by %d KiB over %d commits", grew>>10, commits)
			if grew > c.limit {
				t.Errorf("live heap grew by %d KiB over %d commits that each carried a 16 KiB key and wrote 32 bytes: something keeps the frames",
					grew>>10, commits)
			}
		})
	}
}

// liveHeap settles and reads the live heap: two collections, so that what
// the first one's finalizers and pool victims released is gone too.
func liveHeap() uint64 {
	var m runtime.MemStats
	for i := 0; i < 3; i++ {
		time.Sleep(20 * time.Millisecond) // connection teardown is asynchronous
		runtime.GC()
	}
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRetentionPooledScratchHoldsNoStrings: a plan or a scratch going back
// to its pool must not hold a single key or value in the backing arrays it
// keeps — truncating a slice leaves its strings where they were, and each
// of them pins a dead request's frame (or a store value) for as long as
// the pool holds the scratch.
func TestRetentionPooledScratchHoldsNoStrings(t *testing.T) {
	srv, _ := newTestServer(t, Config{Shards: 2})
	keys := []string{"a", "b", "c", "d", "e", "f"}
	var kvs []wire.KV
	for _, k := range keys {
		kvs = append(kvs, wire.KV{Key: k + "w", Value: "v"})
	}

	p := srv.plan(srv.newTxnID(), keys, kvs)
	p.release(srv)
	for i := range p.slots {
		sl := &p.slots[i]
		for _, k := range sl.reads[:cap(sl.reads)] {
			if k != "" {
				t.Errorf("released plan, shard %d: read key %q left behind", i, k)
			}
		}
		for _, lr := range sl.lockReq[:cap(sl.lockReq)] {
			if lr.Key != "" {
				t.Errorf("released plan, shard %d: lock request for %q left behind", i, lr.Key)
			}
		}
		if sl.writes != nil {
			t.Errorf("released plan, shard %d: write set left behind", i)
		}
	}
	if len(p.written)+len(p.seenRead) != 0 || p.kvs != nil || p.vers != nil {
		t.Error("released plan: dedup maps or result slices left behind")
	}

	cw := newConnWriter(discardConn{})
	defer cw.Close()
	srv.readOnly(&wire.Request{ID: 1, Op: wire.OpROTxn, Keys: keys}, cw)
	sc := srv.roPool.Get().(*roScratch) // this goroutine just put it there
	if cap(sc.keys) == 0 {
		t.Skip("the pool handed back a fresh scratch, not the released one")
	}
	for _, k := range sc.keys[:cap(sc.keys)] {
		if k != "" {
			t.Errorf("released scratch: key %q left behind", k)
		}
	}
	for i := range sc.waiters {
		w := &sc.waiters[i]
		for _, k := range sc.perShard[i][:cap(sc.perShard[i])] {
			if k != "" {
				t.Errorf("released scratch, shard %d: key %q left behind", i, k)
			}
		}
		for _, v := range w.vals[:cap(w.vals)] {
			if v != (roVal{}) {
				t.Errorf("released scratch, shard %d: read result %+v left behind", i, v)
			}
		}
		if w.keys != nil {
			t.Errorf("released scratch, shard %d: waiter still points at its keys", i)
		}
	}
	if len(sc.seen)+len(sc.vals) != 0 {
		t.Error("released scratch: dedup or result map left behind")
	}
}
