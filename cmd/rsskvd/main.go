// Command rsskvd is the networked RSS key-value daemon: a sharded,
// strictly serializable (hence RSS) key-value server speaking the wire
// protocol of internal/wire. With -replicas=N every shard leads a
// replication group of N-1 in-process followers and snapshot reads are
// served from replicas bounded by the replicated t_safe. Drive it with
// internal/kvclient or `rssbench loadgen`, which also verifies recorded
// histories with the paper's checker.
//
// Followers can also live in other processes: a kv-mode daemon accepts
// replica joins by default (-accept-replicas), and
//
//	rsskvd -mode=replica -join=<leader addr> [-addr 127.0.0.1:0]
//
// runs an out-of-process follower: one replica per leader shard, pulling
// the replicated logs over the wire protocol (snapshot catch-up included,
// so it may join, fall behind leader-side log truncation, die, and rejoin
// at any time), serving snapshot reads on its own listener whenever its
// acknowledged t_safe is fresh enough for the leader's router.
//
// With -mode=queue the daemon serves the composition experiments' FIFO
// queue service instead (internal/queue's live server): leader-sequenced,
// linearizable, OpEnqueue/OpDequeue/OpFence only, with -replicas backup
// acceptors on the live replication transport.
//
// Usage:
//
//	rsskvd [-addr :7365] [-mode kv|queue|replica] [-shards 8] [-replicas 3]
//	       [-join addr] [-advertise addr] [-stats 10s] [-chaos mode] [-po-lag 0]
//	       [-slowop 0] [-pprof addr] [-data-dir dir] [-ckpt-bytes n]
//
// With -data-dir every shard group-commits a write-ahead log and takes
// periodic checkpoints under the directory; a restart with the same
// -data-dir replays them — resolving any in-flight 2PC — and serves from
// the recovered state, with surviving replicas resyncing from the
// recovered log instead of a forced full snapshot. See internal/wal.
//
// Every personality answers OpMetrics with its counters, gauges, and
// per-stage latency histograms; scrape one daemon or a whole fleet with
// `rssbench metrics -addrs=...`. -slowop logs per-stage timelines of
// transactions slower than the threshold (kv mode), and -pprof serves the
// stdlib profiling handlers on a separate listener.
//
// Chaos modes (each breaks exactly one RSS condition; recorded histories
// must be rejected by the checker): stale-reads, delayed-applies,
// dropped-lock-release, lost-commit-wait. In replica mode only
// delayed-applies applies (the replica acknowledges watermarks ahead of
// its applies). -po-lag > 0 is the PO-serializability ablation used by
// `rssbench composition -fences=off`: session-consistent snapshot reads
// that lag real time, making the daemon sequentially consistent per
// session rather than RSS.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // -pprof registers the profiling handlers
	"os"
	"os/signal"
	"syscall"
	"time"

	"rsskv/internal/queue"
	"rsskv/internal/replication"
	"rsskv/internal/server"
	"rsskv/internal/viewchange"
)

var (
	addr       = flag.String("addr", ":7365", "listen address (replica mode: the read listener the leader dials back)")
	mode       = flag.String("mode", "kv", "daemon personality: kv | queue | replica")
	shards     = flag.Int("shards", 8, "number of keyspace shards (kv mode)")
	replicas   = flag.Int("replicas", 1, "kv: copies per shard including the leader (>1 serves snapshot reads from followers); queue: backup acceptors + 1")
	joinAddr   = flag.String("join", "", "replica mode: the leader daemon to join (required)")
	advertise  = flag.String("advertise", "", "replica mode: read address the leader dials back (default: the listener address; set on multi-host deployments)")
	acceptRepl = flag.Bool("accept-replicas", true, "kv mode: accept out-of-process replica joins (rsskvd -mode=replica)")
	maxFrame   = flag.Int("maxframe", 0, "max accepted frame size in bytes (0 = default 1 MiB)")
	statsEvy   = flag.Duration("stats", 10*time.Second, "stats logging interval (0 disables)")
	epsilon    = flag.Duration("eps", 0, "TrueTime uncertainty bound ε (adds ~2ε commit wait per mutation); on separate machines size it to the real clock-sync bound or cross-server t_min propagation breaks")
	commitEst  = flag.Duration("commit-est", 0, "advertised earliest-end-time estimate t_ee for commits; >0 lets snapshot reads skip concurrent preparers (§5) at the cost of delaying commit responses until the estimate passes")
	chaos      = flag.String("chaos", "", "fault injection: stale-reads | delayed-applies | dropped-lock-release | lost-commit-wait (recorded histories violate RSS)")
	poLag      = flag.Duration("po-lag", 0, "PO-serializability ablation: serve snapshot reads this far behind real time, session floor preserved (recorded cross-service histories violate RSS; the fences-off composition twin)")
	applyBatch = flag.Int("apply-batch", 0, "kv mode: max closures per shard apply-loop drain / replication entries per batched append (0 = default 64; negative clamps to 1, the entry-at-a-time pipeline)")
	admitQPS   = flag.Float64("admit-qps", 0, "kv mode: admission-control throughput cap in ops/s, split over shards; excess arrivals are delayed then rejected with a retry hint (0 = admission disabled)")
	admitQueue = flag.Int("admit-queue", 0, "kv mode: per-shard admission delay-queue bound; overflow rejects immediately (0 = default 64)")
	admitDeadl = flag.Duration("admit-deadline", 0, "kv mode: longest a delayed arrival waits for admission before rejection (0 = default 5ms)")
	dataDir    = flag.String("data-dir", "", "kv mode: write per-shard WALs and checkpoints under this directory and recover from them on restart (empty = no durability)")
	ckptBytes  = flag.Int64("ckpt-bytes", 0, "kv mode: checkpoint after this many WAL bytes per shard (0 = default 4 MiB; needs -data-dir)")
	slowOp     = flag.Duration("slowop", 0, "kv mode: log any transaction slower than this with its per-stage timeline (0 disables)")
	pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	epoch      = flag.Uint64("epoch", 0, "kv mode: view epoch this leader serves (0 = default 1); stamped on every replication entry and WAL record")
	syncRepl   = flag.Bool("sync-repl", false, "kv/replica mode: synchronous replication — withhold responses until a live follower acknowledged the batch; required for acknowledged writes to survive failover")
	promoAfter = flag.Duration("promote-after", 0, "replica mode: self-promote to leader when the leader has answered nothing for this long (0 = only explicit OpPromote orders)")
	promoAddr  = flag.String("promote-addr", "127.0.0.1:0", "replica mode: address the promoted server listens on")
	noFence    = flag.Bool("no-fence", false, "replica mode CHAOS: promote without fencing — keep following and acknowledging the old leader while serving as the new one (split brain; recorded histories must be rejected)")
)

// startPprof serves the stdlib pprof handlers on their own listener, kept
// off the data-plane port so profiling never competes with wire traffic.
func startPprof(addr string) {
	if addr == "" {
		return
	}
	go func() {
		log.Printf("rsskvd: pprof on http://%s/debug/pprof/", addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			log.Printf("rsskvd: pprof listener: %v", err)
		}
	}()
}

// queueMain runs the daemon as the live queue service.
func queueMain() {
	srv := queue.NewServer(queue.ServerConfig{MaxFrame: *maxFrame, Acceptors: *replicas - 1})
	if err := srv.Start(*addr); err != nil {
		log.Fatalf("rsskvd: %v", err)
	}
	log.Printf("rsskvd: queue mode, listening on %s with %d acceptors", srv.Addr(), srv.Acceptors())
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var tick <-chan time.Time
	if *statsEvy > 0 {
		t := time.NewTicker(*statsEvy)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-tick:
			s := srv.Stats()
			log.Printf("rsskvd: conns=%d enqueues=%d dequeues=%d empties=%d fences=%d acked=%d",
				s.Conns.Load(), s.Enqueues.Load(), s.Dequeues.Load(),
				s.Empties.Load(), s.Fences.Load(), srv.AckedWatermark())
		case sig := <-stop:
			log.Printf("rsskvd: %v, shutting down", sig)
			srv.Close()
			return
		}
	}
}

// replicaMain runs the daemon as an out-of-process follower of -join.
func replicaMain() {
	if *joinAddr == "" {
		fmt.Fprintln(os.Stderr, "replica mode needs -join=<leader addr>")
		os.Exit(2)
	}
	var nodeChaos replication.Chaos
	switch *chaos {
	case "":
	case "delayed-applies":
		nodeChaos = replication.Chaos{DelayedApplies: true, ApplyDelay: 10 * time.Millisecond}
	default:
		fmt.Fprintf(os.Stderr, "replica mode supports only -chaos=delayed-applies, not %q\n", *chaos)
		os.Exit(2)
	}
	node, err := replication.StartNode(replication.NodeConfig{
		Leader:    *joinAddr,
		Addr:      *addr,
		Advertise: *advertise,
		MaxFrame:  *maxFrame, // 0 keeps the snapshot-sized node default
		Chaos:     nodeChaos,
	})
	if err != nil {
		log.Fatalf("rsskvd: %v", err)
	}
	log.Printf("rsskvd: replica mode, joined %s with %d shard replicas, serving reads on %s (advertised %s)",
		*joinAddr, node.Shards(), node.Addr(), node.Advertise())
	sup, err := viewchange.New(viewchange.Config{
		Node:         node,
		Leader:       *joinAddr,
		PromoteAddr:  *promoAddr,
		PromoteAfter: *promoAfter,
		NoFence:      *noFence,
		Server: server.Config{
			MaxFrame:         *maxFrame,
			Epsilon:          *epsilon,
			CommitEstimate:   *commitEst,
			AllowReplicaJoin: *acceptRepl,
			ApplyBatchMax:    *applyBatch,
			SyncRepl:         *syncRepl,
			DataDir:          *dataDir,
			CheckpointBytes:  *ckptBytes,
		},
	})
	if err != nil {
		log.Fatalf("rsskvd: %v", err)
	}
	if *promoAfter > 0 {
		log.Printf("rsskvd: will self-promote after %s of leader silence (promoted server on %s)", *promoAfter, *promoAddr)
	}
	if *chaos != "" || *noFence {
		log.Printf("rsskvd: CHAOS MODE — recorded histories will violate RSS")
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var tick <-chan time.Time
	if *statsEvy > 0 {
		t := time.NewTicker(*statsEvy)
		defer t.Stop()
		tick = t.C
	}
	promoted := false
	for {
		select {
		case <-tick:
			if srv := sup.Promoted(); srv != nil {
				if !promoted {
					promoted = true
					e, _ := sup.View()
					log.Printf("rsskvd: PROMOTED to leader of epoch %d, serving on %s", e, srv.Addr())
				}
				s := srv.Stats()
				log.Printf("rsskvd: (promoted) conns=%d gets=%d puts=%d commits=%d rotxns=%d",
					s.Conns.Load(), s.Gets.Load(), s.Puts.Load(), s.Commits.Load(), s.ROs.Load())
				continue
			}
			log.Printf("rsskvd: pulls=%d snapshots=%d min-tsafe=%d epoch=%d",
				node.Pulls(), node.Snapshots(), node.MinTSafe(), node.MaxEpoch())
		case sig := <-stop:
			log.Printf("rsskvd: %v, shutting down", sig)
			sup.Close()
			if srv := sup.Promoted(); srv != nil {
				srv.Close()
			}
			node.Close()
			return
		}
	}
}

func main() {
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	startPprof(*pprofAddr)
	switch *mode {
	case "queue":
		queueMain()
		return
	case "replica":
		replicaMain()
		return
	case "kv":
	default:
		fmt.Fprintf(os.Stderr, "unknown -mode %q (supported: kv, queue, replica)\n", *mode)
		os.Exit(2)
	}
	cfg := server.Config{
		Shards:           *shards,
		Replicas:         *replicas,
		MaxFrame:         *maxFrame,
		Epsilon:          *epsilon,
		CommitEstimate:   *commitEst,
		POReadLag:        *poLag,
		AllowReplicaJoin: *acceptRepl,
		ApplyBatchMax:    *applyBatch,
		AdmitQPS:         *admitQPS,
		AdmitQueue:       *admitQueue,
		AdmitDeadline:    *admitDeadl,
		SlowOpThreshold:  *slowOp,
		DataDir:          *dataDir,
		CheckpointBytes:  *ckptBytes,
		Epoch:            *epoch,
		SyncRepl:         *syncRepl,
	}
	if err := cfg.ApplyChaosMode(*chaos, func(f string, a ...any) { log.Printf("rsskvd: "+f, a...) }); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	srv, err := server.Open(cfg)
	if err != nil {
		log.Fatalf("rsskvd: %v", err)
	}
	if rec := srv.Recovery(); rec.Records > 0 || rec.Checkpoints > 0 || rec.PreparesRestored > 0 {
		log.Printf("rsskvd: recovered %d checkpoints, %d log records, %d torn tails; %d dangling prepares (%d committed, %d aborted)",
			rec.Checkpoints, rec.Records, rec.TornTails,
			rec.PreparesRestored, rec.PreparesCommitted, rec.PreparesAborted)
	}
	if err := srv.Start(*addr); err != nil {
		log.Fatalf("rsskvd: %v", err)
	}
	log.Printf("rsskvd: listening on %s with %d shards x %d replicas", srv.Addr(), srv.Shards(), srv.Replicas())
	if *chaos != "" {
		log.Printf("rsskvd: CHAOS MODE %q — recorded histories will violate RSS", *chaos)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var tick <-chan time.Time
	if *statsEvy > 0 {
		t := time.NewTicker(*statsEvy)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-tick:
			s := srv.Stats()
			line := fmt.Sprintf("conns=%d gets=%d puts=%d commits=%d aborts=%d fences=%d rotxns=%d roblocked=%d roskips=%d",
				s.Conns.Load(), s.Gets.Load(), s.Puts.Load(),
				s.Commits.Load(), s.Aborts.Load(), s.Fences.Load(),
				s.ROs.Load(), s.ROBlocked.Load(), s.ROSkips.Load())
			if srv.Replicas() > 1 || s.ReplicaJoins.Load() > 0 {
				line += fmt.Sprintf(" rofollower=%d (chan=%d sock=%d) rofallback=%d joins=%d snapshots=%d replag=%s",
					s.ROFollower.Load(), s.ROFollowerChan.Load(), s.ROFollowerSock.Load(),
					s.ROFallback.Load(), s.ReplicaJoins.Load(), s.ReplSnapshots.Load(),
					srv.ReplicationLag())
			}
			if *admitQPS > 0 {
				line += fmt.Sprintf(" admitrejects=%d admitdelays=%d",
					s.AdmitRejects.Load(), s.AdmitDelayed.Load())
			}
			log.Printf("rsskvd: %s", line)
		case sig := <-stop:
			log.Printf("rsskvd: %v, shutting down", sig)
			srv.Close()
			return
		}
	}
}
