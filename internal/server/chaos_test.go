package server

import (
	"testing"
	"time"

	"rsskv/internal/core"
	"rsskv/internal/history"
	"rsskv/internal/loadgen"
	"rsskv/internal/replication"
)

// Fault-injection falsifiability: each chaos mode breaks exactly one RSS
// condition, and each test runs the same workload twice — with the fault,
// the recorded history must be REJECTED by the checker; without it, the
// same workload must pass. Together with -chaos=stale-reads (see
// TestChaosStaleReadsRejected in server_test.go) this demonstrates that
// every condition the serving stack relies on is independently violable
// and independently caught.

// chaosWorkload is a contended mix with enough snapshot reads and
// read-write transactions for any broken condition to surface in the
// recorded history.
func chaosWorkload(addr string, seed int64) loadgen.Config {
	return loadgen.Config{
		Addr:         addr,
		Clients:      8,
		OpsPerClient: 250,
		Keys:         12, // hot keyspace: reads race writes constantly
		TxnFrac:      0.35,
		ROFrac:       0.35,
		MultiFrac:    0.1,
		Seed:         seed,
	}
}

// runChaosPair drives the same workload against a broken and a correct
// server and returns the two check results.
func runChaosPair(t *testing.T, broken, clean Config, seed int64) (brokenErr, cleanErr error) {
	t.Helper()
	run := func(cfg Config) error {
		srv := New(cfg)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		res, err := loadgen.Run(chaosWorkload(srv.Addr(), seed))
		if err != nil {
			t.Fatalf("loadgen: %v", err)
		}
		assertNoReadBelowFloor(t, srv)
		return history.Check(res.H, core.RSS)
	}
	return run(broken), run(clean)
}

// assertNoReadBelowFloor: none of these faults lowers a read's timestamp,
// so whatever else a run breaks, no snapshot read may reach a store — the
// leader's or an in-process follower's — below its floor: the history must
// be rejected for the fault under test, not for a version trimmed early.
func assertNoReadBelowFloor(t *testing.T, srv *Server) {
	t.Helper()
	if n := counter(srv, "ro.below_floor"); n != 0 {
		t.Errorf("ro.below_floor = %d", n)
	}
}

// TestChaosDelayedAppliesRejected: followers acknowledge watermarks ahead
// of their applies and serve routed reads from the stale store, so
// follower snapshot reads miss writes that committed (and completed)
// before the read began — RSS condition (3) broken at the replica. The
// checker must reject the chaos run and accept the clean twin. The fault
// is parameterized over both transports: in-process channel followers lie
// through their atomics, out-of-process socket replicas lie through
// OpReplAck messages — the checker catches both identically.
func TestChaosDelayedAppliesRejected(t *testing.T) {
	for _, flavor := range transportFlavors {
		flavor := flavor
		t.Run(flavor, func(t *testing.T) {
			run := func(chaos replication.Chaos, cfgChaos bool) error {
				cfg := Config{Shards: 4, ChaosDelayedApplies: cfgChaos}
				srv, _ := startReplicated(t, flavor, 2, cfg, chaos)
				res, err := loadgen.Run(chaosWorkload(srv.Addr(), 21))
				if err != nil {
					t.Fatalf("loadgen: %v", err)
				}
				assertNoReadBelowFloor(t, srv)
				return history.Check(res.H, core.RSS)
			}
			var brokenErr error
			if flavor == "chan" {
				// Config-level chaos reaches the in-process followers.
				brokenErr = run(replication.Chaos{}, true)
			} else {
				// The replica process itself is the liar; the leader is honest.
				brokenErr = run(replication.Chaos{DelayedApplies: true, ApplyDelay: chaosApplyDelay}, false)
			}
			if brokenErr == nil {
				t.Error("checker accepted a history served by acked-before-applied replicas")
			} else {
				t.Logf("checker correctly rejected: %v", brokenErr)
			}
			if cleanErr := run(replication.Chaos{}, false); cleanErr != nil {
				t.Errorf("same workload without chaos is not RSS: %v", cleanErr)
			}
		})
	}
}

// TestChaosDroppedLockReleaseRejected: transactions release their
// footprint at prepare instead of holding it through apply, so
// conflicting operations slip between the commit decision and its reads
// and writes — unprotected reads and lost updates, the serializability
// half of RSS. The checker must reject the chaos run and accept the
// clean twin.
func TestChaosDroppedLockReleaseRejected(t *testing.T) {
	broken := Config{Shards: 4, ChaosDroppedLockRelease: true}
	clean := Config{Shards: 4}
	brokenErr, cleanErr := runChaosPair(t, broken, clean, 22)
	if brokenErr == nil {
		t.Error("checker accepted a history produced without strict two-phase locking")
	} else {
		t.Logf("checker correctly rejected: %v", brokenErr)
	}
	if cleanErr != nil {
		t.Errorf("same workload without chaos is not RSS: %v", cleanErr)
	}
}

// TestChaosLostCommitWaitRejected is the deterministic two-operation
// distillation of the lost-commit-wait fault. With uncertainty ε > 0 and
// commit wait skipped, a put is acknowledged while its commit timestamp
// is still up to 2ε in the future; a snapshot read invoked immediately
// afterwards, served at TT.now().earliest (the reader commit wait exists
// to protect), misses the completed write — RSS condition (3). The same
// two operations against a correct server (commit wait intact, t_read at
// TT.now().latest) see the write.
func TestChaosLostCommitWaitRejected(t *testing.T) {
	const eps = 5 * time.Millisecond
	srv, cl := newTestServer(t, Config{Shards: 2, Epsilon: eps, ChaosLostCommitWait: true})
	_ = srv

	h := &history.History{}
	start := time.Now()
	ver, err := cl.Put("lcw-k", "v1")
	if err != nil {
		t.Fatal(err)
	}
	putDone := time.Since(start)
	if putDone > eps {
		t.Skipf("put took %v, longer than ε; cannot distinguish lost commit wait", putDone)
	}
	h.Add(&core.Op{
		ID: 1, Client: 0, Service: "rsskvd", Type: core.Write,
		Key: "lcw-k", Value: "v1", Version: ver,
		Invoke: 10, Respond: 20,
	})
	vals, snap, err := cl.ReadOnly("lcw-k")
	if err != nil {
		t.Fatal(err)
	}
	if vals["lcw-k"] == "v1" {
		t.Skip("commit timestamp passed before the read; nothing to assert")
	}
	h.Add(&core.Op{
		ID: 2, Client: 1, Service: "rsskvd", Type: core.ROTxn,
		Reads: map[string]string{"lcw-k": vals["lcw-k"]}, Version: snap,
		Invoke: 30, Respond: 40,
	})
	if err := history.Check(h, core.RSS); err == nil {
		t.Fatal("RSS checker accepted a read that missed a commit-wait-free completed write")
	} else {
		t.Logf("checker correctly rejected: %v", err)
	}

	// The clean twin: identical operations, commit wait intact. The put
	// takes ~2ε longer and the read must see it.
	_, cl2 := newTestServer(t, Config{Shards: 2, Epsilon: eps})
	ver2, err := cl2.Put("lcw-k", "v1")
	if err != nil {
		t.Fatal(err)
	}
	vals2, snap2, err := cl2.ReadOnly("lcw-k")
	if err != nil {
		t.Fatal(err)
	}
	if vals2["lcw-k"] != "v1" {
		t.Fatalf("clean server snapshot read = %q, want \"v1\"", vals2["lcw-k"])
	}
	clean := &history.History{}
	clean.Add(&core.Op{
		ID: 1, Client: 0, Service: "rsskvd", Type: core.Write,
		Key: "lcw-k", Value: "v1", Version: ver2,
		Invoke: 10, Respond: 20,
	})
	clean.Add(&core.Op{
		ID: 2, Client: 1, Service: "rsskvd", Type: core.ROTxn,
		Reads: map[string]string{"lcw-k": vals2["lcw-k"]}, Version: snap2,
		Invoke: 30, Respond: 40,
	})
	if err := history.Check(clean, core.RSS); err != nil {
		t.Fatalf("clean twin rejected: %v", err)
	}
}

// TestChaosLostCommitWaitLoadgenRejected is the live-traffic version: a
// contended run against a commit-wait-free server with real uncertainty
// must record a history the checker rejects, and the same workload with
// commit wait intact must pass. (Both sides pay ~2ε of write latency.)
func TestChaosLostCommitWaitLoadgenRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("ε-scaled commit waits make this slow")
	}
	const eps = 2 * time.Millisecond
	broken := Config{Shards: 4, Epsilon: eps, ChaosLostCommitWait: true}
	clean := Config{Shards: 4, Epsilon: eps}
	run := func(cfg Config) error {
		srv := New(cfg)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		res, err := loadgen.Run(loadgen.Config{
			Addr:         srv.Addr(),
			Clients:      8,
			OpsPerClient: 100,
			Keys:         12,
			TxnFrac:      0.2,
			ROFrac:       0.4,
			Seed:         23,
		})
		if err != nil {
			t.Fatalf("loadgen: %v", err)
		}
		return history.Check(res.H, core.RSS)
	}
	if err := run(broken); err == nil {
		t.Error("checker accepted a commit-wait-free history")
	} else {
		t.Logf("checker correctly rejected: %v", err)
	}
	if err := run(clean); err != nil {
		t.Errorf("same workload with commit wait is not RSS: %v", err)
	}
}
