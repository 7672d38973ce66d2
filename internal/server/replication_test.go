package server

import (
	"fmt"
	"testing"
	"time"

	"rsskv/internal/core"
	"rsskv/internal/history"
	"rsskv/internal/kvclient"
	"rsskv/internal/loadgen"
	"rsskv/internal/replication"
)

func dialClient(t *testing.T, srv *Server) *kvclient.Client {
	t.Helper()
	cl, err := kvclient.Dial(srv.Addr(), kvclient.Options{Conns: 1})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// These tests close the loop on the replicated snapshot-read path: live
// RSS-checked traffic against a server whose shards each lead a
// replication group, with reads served from followers bounded by the
// replicated t_safe — including while replicas die underneath the run.
// Every test is parameterized over the transport ("chan": in-process
// followers, -replicas; "sock": out-of-process replica nodes over real
// sockets, -mode=replica) — the redesign's falsifiability bar is that the
// failure matrix cannot tell the transports apart.

var transportFlavors = []string{"chan", "sock"}

// startReplicated starts a server with n follower replicas of the given
// flavor. For "sock" it also starts n replication.Nodes (each with chaos)
// joined over real sockets, sequentially so transport index == node
// index on every shard, and waits until every shard routes to them.
func startReplicated(t *testing.T, flavor string, n int, cfg Config, chaos replication.Chaos) (*Server, []*replication.Node) {
	t.Helper()
	switch flavor {
	case "chan":
		cfg.Replicas = n + 1
	case "sock":
		cfg.Replicas = 1
		cfg.AllowReplicaJoin = true
	default:
		t.Fatalf("unknown transport flavor %q", flavor)
	}
	srv := New(cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	var nodes []*replication.Node
	if flavor == "sock" {
		for i := 0; i < n; i++ {
			node, err := replication.StartNode(replication.NodeConfig{Leader: srv.Addr(), Chaos: chaos})
			if err != nil {
				t.Fatalf("node %d join: %v", i, err)
			}
			t.Cleanup(node.Close)
			nodes = append(nodes, node)
			waitJoined(t, srv, i+1)
		}
	}
	return srv, nodes
}

// waitJoined waits until every shard group has n attached transports with
// a nonzero acknowledged watermark (heartbeats flow on an idle server, so
// a healthy join acks within milliseconds).
func waitJoined(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ready := 0
		for _, s := range srv.shards {
			if s.repl.Transports() >= n && s.repl.TSafe() > 0 {
				ready++
			}
		}
		if ready == len(srv.shards) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("replicas never became routable on every shard")
}

// contended returns a loadgen config that forces follower reads to race
// writes on a hot keyspace.
func contended(addr string, seed int64) loadgen.Config {
	return loadgen.Config{
		Addr:         addr,
		Clients:      8,
		OpsPerClient: 250,
		Keys:         24,
		TxnFrac:      0.2,
		ROFrac:       0.4,
		MultiFrac:    0.1,
		Seed:         seed,
	}
}

// TestFollowerReadsServeAndStayRSS: with followers under every shard a
// contended run serves a nonzero fraction of snapshot reads from them,
// and the recorded history still passes the checker — the acceptance bar
// for the replicated read path, and (in the sock flavor) the end-to-end
// proof that out-of-process replicas produce an RSS-accepted history.
func TestFollowerReadsServeAndStayRSS(t *testing.T) {
	for _, flavor := range transportFlavors {
		flavor := flavor
		t.Run(flavor, func(t *testing.T) {
			srv, _ := startReplicated(t, flavor, 2, Config{Shards: 4}, replication.Chaos{})
			res, err := loadgen.Run(contended(srv.Addr(), 11))
			if err != nil {
				t.Fatalf("loadgen: %v", err)
			}
			if got := srv.Stats().ROFollower.Load(); got == 0 {
				t.Error("no snapshot-read portions served by followers")
			} else {
				t.Logf("follower-served portions: %d (chan %d, sock %d, fallbacks %d)",
					got, srv.Stats().ROFollowerChan.Load(),
					srv.Stats().ROFollowerSock.Load(), srv.Stats().ROFallback.Load())
			}
			if flavor == "sock" && srv.Stats().ROFollowerSock.Load() == 0 {
				t.Error("sock flavor served no portions via socket transports")
			}
			if res.FollowerROs == 0 {
				t.Error("no client-visible pure follower reads")
			}
			if err := history.Check(res.H, core.RSS); err != nil {
				t.Errorf("history with follower reads is not RSS: %v", err)
			}
			assertNoReadBelowFloor(t, srv) // leader and followers, either transport
		})
	}
}

// TestReplicaKillLiveness kills backup node 1 (its transport in every
// shard group) in the middle of a contended run: the shards must keep
// serving, reads must fail over to the leader, the run must complete, and
// the recorded history must still be RSS.
func TestReplicaKillLiveness(t *testing.T) {
	for _, flavor := range transportFlavors {
		flavor := flavor
		t.Run(flavor, func(t *testing.T) {
			srv, _ := startReplicated(t, flavor, 2, Config{Shards: 4}, replication.Chaos{})
			killed := make(chan struct{})
			go func() {
				defer close(killed)
				time.Sleep(30 * time.Millisecond) // mid-run, while traffic flows
				if !srv.KillReplica(1) {
					t.Error("KillReplica(1) found no follower")
				}
			}()
			res, err := loadgen.Run(contended(srv.Addr(), 12))
			<-killed
			if err != nil {
				t.Fatalf("run did not survive the replica kill: %v", err)
			}
			if res.Ops != 8*250 {
				t.Fatalf("completed %d ops, want %d", res.Ops, 8*250)
			}
			if err := history.Check(res.H, core.RSS); err != nil {
				t.Errorf("history after replica kill is not RSS: %v", err)
			}
			// The surviving follower (node 0) can still serve; the dead one
			// must not. Snapshot reads after the kill keep working either way.
			cl := dialClient(t, srv)
			if _, err := cl.Put("post-kill", "v"); err != nil {
				t.Fatal(err)
			}
			vals, _, err := cl.ReadOnly("post-kill")
			if err != nil || vals["post-kill"] != "v" {
				t.Fatalf("snapshot read after kill = (%v, %v), want v", vals, err)
			}
		})
	}
}

// TestReplicaAckPathLossFailsOver severs the leader's view of every
// backup's acknowledgments mid-run: replicas keep applying but stop
// advertising progress, so snapshot reads drain back to the leader. The
// run must complete and stay RSS — this is the "backup ack path" half of
// the kill matrix.
func TestReplicaAckPathLossFailsOver(t *testing.T) {
	for _, flavor := range transportFlavors {
		flavor := flavor
		t.Run(flavor, func(t *testing.T) {
			srv, _ := startReplicated(t, flavor, 1, Config{Shards: 4}, replication.Chaos{})
			dropped := make(chan struct{})
			go func() {
				defer close(dropped)
				time.Sleep(30 * time.Millisecond)
				if !srv.DropReplicaAcks(0) {
					t.Error("DropReplicaAcks(0) found no follower")
				}
			}()
			res, err := loadgen.Run(contended(srv.Addr(), 13))
			<-dropped
			if err != nil {
				t.Fatalf("run did not survive the ack-path loss: %v", err)
			}
			if err := history.Check(res.H, core.RSS); err != nil {
				t.Errorf("history after ack-path loss is not RSS: %v", err)
			}
			fallbacks := srv.Stats().ROFallback.Load()
			if fallbacks == 0 {
				t.Error("no leader fallbacks recorded after the ack path froze")
			}
			// With every advertised t_safe frozen, fresh reads must route to
			// the leader yet still succeed.
			cl := dialClient(t, srv)
			if _, err := cl.Put("post-drop", "v"); err != nil {
				t.Fatal(err)
			}
			before := srv.Stats().ROFollower.Load()
			vals, _, err := cl.ReadOnly("post-drop")
			if err != nil || vals["post-drop"] != "v" {
				t.Fatalf("snapshot read after ack loss = (%v, %v), want v", vals, err)
			}
			if got := srv.Stats().ROFollower.Load(); got != before {
				t.Errorf("a follower with frozen acks served a fresh read (%d -> %d)", before, got)
			}
		})
	}
}

// TestSockReplicaSnapshotCatchUpAndRejoin is the acceptance test for the
// truncation + catch-up half of the redesign, at the full server level: a
// replica that joins after the leader truncated its log (and one that
// rejoins at the same address after dying and falling further behind)
// catches up via snapshot + suffix replay and then serves a covered RO
// read through the normal routed path.
func TestSockReplicaSnapshotCatchUpAndRejoin(t *testing.T) {
	srv := New(Config{Shards: 2, AllowReplicaJoin: true, ReplLogRetain: 64})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cl := dialClient(t, srv)

	// History far past the retention cap before any replica exists.
	for i := 0; i < 300; i++ {
		if _, err := cl.Put(fmt.Sprintf("k%d", i%10), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	node, err := replication.StartNode(replication.NodeConfig{Leader: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	waitJoined(t, srv, 1)
	if node.Snapshots() == 0 {
		t.Error("replica joined a truncated log without a snapshot")
	}
	if srv.Stats().ReplSnapshots.Load() == 0 {
		t.Error("leader shipped no catch-up snapshots")
	}
	assertFollowerRead(t, srv, cl, "k7", "v297")

	// The node dies; the log moves on past the cap; a fresh process at
	// the same address rejoins — snapshot + suffix replay again.
	addr := node.Addr()
	node.Close()
	for i := 300; i < 600; i++ {
		if _, err := cl.Put(fmt.Sprintf("k%d", i%10), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	node2, err := replication.StartNode(replication.NodeConfig{Leader: srv.Addr(), Addr: addr})
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	t.Cleanup(node2.Close)
	waitJoined(t, srv, 1)
	if node2.Snapshots() == 0 {
		t.Error("rejoined replica caught up without a snapshot")
	}
	assertFollowerRead(t, srv, cl, "k7", "v597")
}

// assertFollowerRead insists that a snapshot read of key is served by a
// follower replica (retrying a few times — a single routed read may fall
// back if an ack is mid-flight) and returns the expected value.
func assertFollowerRead(t *testing.T, srv *Server, cl *kvclient.Client, key, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		before := srv.Stats().ROFollowerSock.Load()
		vals, _, err := cl.ReadOnly(key)
		if err != nil {
			t.Fatalf("snapshot read: %v", err)
		}
		if vals[key] != want {
			t.Fatalf("snapshot read %s = %q, want %q", key, vals[key], want)
		}
		if srv.Stats().ROFollowerSock.Load() > before {
			return // served by the socket replica, value already checked
		}
		if time.Now().After(deadline) {
			t.Fatal("no snapshot read was served by the socket replica")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
