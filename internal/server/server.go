package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rsskv/internal/locks"
	"rsskv/internal/netio"
	"rsskv/internal/obs"
	"rsskv/internal/replication"
	"rsskv/internal/truetime"
	"rsskv/internal/wal"
	"rsskv/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// Shards is the number of keyspace partitions (default 8). Each
	// shard has its own apply loop, store, and lock table.
	Shards int
	// MaxFrame bounds accepted request frames (default wire.MaxFrame).
	MaxFrame int
	// ApplyBatchMax caps how many queued closures a shard apply loop
	// drains per wakeup before flushing their replication entries as one
	// batch (default 64, sized so a saturated shard amortizes the group
	// lock and transport hops without starving fairness; 1 restores
	// entry-at-a-time appends). Batching never delays an unloaded shard:
	// the first receive blocks, the rest are opportunistic.
	ApplyBatchMax int
	// AdmitQPS > 0 enables admission control: a per-shard token-bucket
	// gate (the configured rate split evenly over shards, topped up by
	// completed applies) that classifies every RW transaction, snapshot
	// read, and single-key operation as admit, delay, or reject before it
	// touches any shard state (see admission.go). Live overload signals —
	// apply-queue depth and WAL fsync pressure — stall the gate even with
	// tokens in hand. 0 (the default) disables the gate entirely: every
	// request is admitted, the pre-admission server.
	AdmitQPS float64
	// AdmitQueue bounds each shard gate's delay queue (default 64): an
	// arrival that cannot be admitted immediately parks here in FIFO
	// order; overflow is an immediate rejection.
	AdmitQueue int
	// AdmitDeadline bounds how long a delayed arrival waits for a token
	// before it is rejected (default 5ms) — the most queueing latency
	// admission control itself may add to an admitted operation.
	AdmitDeadline time.Duration
	// Epsilon is the TrueTime uncertainty bound ε of the server's wall
	// clock. A single-host server is its own time authority and can run
	// with 0 (the default); a deployment trusting an external sync bound
	// sets it, paying ~2ε of commit wait per mutation.
	Epsilon time.Duration
	// CommitEstimate is the estimated duration of the commit phase, used
	// to advertise a transaction's earliest end time t_ee (§5): snapshot
	// reads must wait for conflicting preparers whose t_ee has passed,
	// because those may already be finished. Responses are withheld until
	// t_ee passes, so a larger estimate trades read-write latency for
	// fewer snapshot-read waits. The default 0 adds no wait: commit wait
	// already outlasts a zero-estimate t_ee.
	CommitEstimate time.Duration
	// Replicas is the number of copies of each shard including the
	// leader (default 1, unreplicated). With N > 1 every shard leads a
	// replication group of N-1 followers (internal/replication): its
	// prepares, commits, and aborts are appended to a per-shard
	// replicated log carrying a safe-time watermark, followers apply the
	// log into their own stores, and snapshot reads are served from a
	// follower whenever the replicated t_safe covers t_read.
	Replicas int
	// ReplicaHeartbeat is how often each shard appends a watermark-only
	// heartbeat entry (default 250µs), which keeps follower t_safe fresh
	// on idle shards; a snapshot read routed to a follower parks at most
	// about this long before its watermark arrives.
	ReplicaHeartbeat time.Duration
	// FollowerReadTimeout bounds how long a routed snapshot read waits
	// for a follower's t_safe to cover t_read before falling back to the
	// leader (default 5ms). It doubles as the routing lag budget: a
	// follower whose acknowledged watermark trails t_read by more than
	// this is not offered reads.
	FollowerReadTimeout time.Duration
	// AllowReplicaJoin accepts out-of-process follower replicas (rsskvd
	// -mode=replica -join): every shard keeps a replication group (even
	// with Replicas 1) whose log retains a bounded suffix for pull
	// transports, the OpReplEntry/OpReplAck/OpReplSnapshot opcodes are
	// served, and joined replicas attract snapshot reads exactly like
	// in-process followers. An idle join-enabled group costs a sequence
	// bump per mutation and nothing per read.
	AllowReplicaJoin bool
	// ReplLogRetain caps the per-shard retained log suffix for joined
	// replicas (default replication.DefaultRetain); a replica lagging
	// past it catches up via snapshot. Tests use small caps to force the
	// truncation path.
	ReplLogRetain int
	// ReplicaEvictAfter is how long a joined replica's acknowledgments
	// may stay silent before the registry presumes the process dead and
	// evicts it (default 10s) — detaching its transports so the router
	// stops scanning them and log truncation moves past its position. A
	// replica evicted while merely slow re-registers on its next pull
	// and catches up via snapshot. Note the Kill/DropAcks failure hooks
	// silence acks too: tests using them must finish (or assert) within
	// this window.
	ReplicaEvictAfter time.Duration
	// Epoch is the view epoch this server leads (default 1): stamped on
	// every replication entry and WAL record, advertised by OpView, and the
	// number a promotion must exceed to depose this leader. A recovered
	// leader resumes at the highest epoch its logs carry if that is larger.
	Epoch uint64
	// SyncRepl makes the shard flush wait, after the replication append,
	// for some live follower to acknowledge applying through the shard's
	// last appended data tail — covering everything the batch's responses
	// could have observed, not just the batch's own appends — before any
	// response in the batch is released, with or without DataDir (see
	// exposure.go). It is the failover-safety mode: an acknowledged
	// write is then guaranteed to be present on the follower a view change
	// promotes, which is what keeps a merged pre/post-failover history RSS.
	// With no live follower attached the wait degrades to asynchronous
	// (there is nobody to wait for, exactly the pre-SyncRepl behavior).
	SyncRepl bool
	// POReadLag > 0 is the PO-serializability ablation, the live analogue
	// of the simulator's spanner.ModePO (Table 1's no-fence row): snapshot
	// reads are served at t_read = max(t_min, TT.now().latest − POReadLag)
	// instead of a fresh timestamp. Session causality survives — the t_min
	// floor still applies, so a client always sees its own writes and
	// anything whose timestamp was propagated to it — but real-time order
	// across sessions is dropped: a completed write by another client stays
	// invisible for up to POReadLag. Each such server is sequentially
	// consistent per session rather than RSS, which is exactly the
	// composition failure mode of Perrin et al.: histories recorded across
	// this server, a second KV, and the queue service violate RSS whenever
	// a cross-service causal chain (an enqueued photo ID, an out-of-band
	// call) outruns the lag. Never enable outside the composition ablation.
	POReadLag time.Duration

	// DataDir enables durability: each shard keeps a write-ahead log with
	// group commit and periodic checkpoints under DataDir/shard-NNNN (see
	// internal/wal), every response waits for the durability of the state
	// it exposes, and Open replays the directory on restart — rebuilding
	// the stores, the prepared set (resolving in-flight 2PC), the
	// safe-time floor, and the replication position. Empty disables
	// durability (the pre-durability in-memory server).
	DataDir string
	// CheckpointBytes is the per-shard log budget between checkpoints
	// (default 4 MiB when durable): once this many log bytes accumulate,
	// the shard cuts an mvstore checkpoint and truncates the covered
	// segments. Tests use tiny budgets to force the rotation paths.
	CheckpointBytes int64
	// WALCrashShard, WALCrashAt, and WALCrashAfter inject a simulated
	// kill -9 into one shard's log for the crash-point test matrix (see
	// wal.CrashPoint): when the chosen shard hits the chosen point, the
	// whole server tears down the way a killed process would — synced
	// state survives on disk, everything else is gone, and nothing is
	// acknowledged after the instant of death. Tests only.
	WALCrashShard int
	WALCrashAt    wal.CrashPoint
	WALCrashAfter int

	// SlowOpThreshold enables the slow-op trace log: any request whose
	// coordinator runs longer than this logs its per-stage timeline
	// through SlowOpLogf (default log.Printf when unset). Zero disables
	// the log; the threshold comparison is the only cost on fast requests.
	SlowOpThreshold time.Duration
	// SlowOpLogf receives slow-op trace lines (see obs.SlowLog). Unset
	// with a nonzero SlowOpThreshold falls back to log.Printf.
	SlowOpLogf func(format string, args ...any)

	// ChaosStaleReads is fault injection for the checker: snapshot reads
	// are served at an artificially lowered t_read and skip the prepared
	// set entirely, so recorded histories with read-only transactions
	// violate RSS. Never enable outside tests and chaos runs.
	ChaosStaleReads bool
	// ChaosDelayedApplies breaks the replication layer's t_safe
	// discipline: followers acknowledge watermarks before applying the
	// entries behind them and serve routed reads without parking, so
	// follower snapshot reads miss committed writes. Requires Replicas >
	// 1 to be observable. Histories must be rejected by the checker.
	ChaosDelayedApplies bool
	// ChaosDroppedLockRelease breaks strict two-phase locking: a
	// transaction's locks are released at prepare instead of being held
	// through apply, so conflicting operations slip between a commit
	// decision and its writes (unprotected reads, lost updates).
	// Histories must be rejected by the checker.
	ChaosDroppedLockRelease bool
	// ChaosLostCommitWait acknowledges mutations before their commit
	// timestamps have definitely passed (no commit wait) and draws
	// snapshot-read timestamps from TT.now().earliest — the most
	// conservative reader, exactly the one commit wait exists to protect.
	// Requires Epsilon > 0 to be observable. Histories must be rejected
	// by the checker.
	ChaosLostCommitWait bool
}

// ApplyChaosMode validates a -chaos flag value, sets the matching Config
// field, and fills in the prerequisites a mode needs to be observable
// (replication for delayed applies, clock uncertainty for lost commit
// wait), reporting any adjustment through warnf. The empty mode is a
// no-op; an unknown mode is an error.
func (cfg *Config) ApplyChaosMode(mode string, warnf func(format string, args ...any)) error {
	switch mode {
	case "":
	case "stale-reads":
		cfg.ChaosStaleReads = true
	case "delayed-applies":
		cfg.ChaosDelayedApplies = true
		if cfg.Replicas < 2 {
			warnf("chaos %q needs follower reads; defaulting -replicas to 3", mode)
			cfg.Replicas = 3
		}
	case "dropped-lock-release":
		cfg.ChaosDroppedLockRelease = true
	case "lost-commit-wait":
		cfg.ChaosLostCommitWait = true
		if cfg.Epsilon <= 0 {
			warnf("chaos %q needs clock uncertainty; defaulting -eps to 10ms", mode)
			cfg.Epsilon = 10 * time.Millisecond
		}
	default:
		return fmt.Errorf("unknown -chaos mode %q (supported: stale-reads, delayed-applies, dropped-lock-release, lost-commit-wait)", mode)
	}
	return nil
}

// Stats are cumulative operation counters, updated atomically. ROs counts
// snapshot read-only transactions; ROBlocked counts shard-level waits on
// the blocking set B, and ROSkips counts prepared transactions skipped
// under the RSS rule (§5) — reads a lock-based server would have blocked.
// ROFollower counts per-shard snapshot-read portions served by follower
// replicas, split by transport: ROFollowerChan by in-process channel
// followers (-replicas), ROFollowerSock by out-of-process socket replicas
// (-mode=replica joins). ROFallback counts portions that were routed to a
// follower (or should have been) but fell back to the leader — lagging,
// killed, or timed-out replicas. ReplicaJoins counts socket replica
// registrations (a rejoin with a fresh boot counts again); ReplSnapshots
// counts catch-up snapshots shipped.
type Stats struct {
	Gets, Puts, Commits, Aborts, Fences, Conns atomic.Int64
	ROs, ROBlocked, ROSkips                    atomic.Int64
	ROFollower, ROFallback                     atomic.Int64
	ROFollowerChan, ROFollowerSock             atomic.Int64
	ReplicaJoins, ReplSnapshots                atomic.Int64
	// AdmitRejects counts operations refused by admission control (queue
	// overflow or deadline expiry — each answered Overloaded, zero state
	// touched); AdmitDelayed counts operations that parked in a gate's
	// delay queue before their outcome (admitted or rejected).
	AdmitRejects, AdmitDelayed atomic.Int64
	// Fenced counts view fencings applied to this server (normally 0 or 1);
	// NotLeaderRejects counts serving-path requests refused after it.
	Fenced, NotLeaderRejects atomic.Int64
}

// Server is a sharded key-value server speaking the wire protocol.
type Server struct {
	cfg    Config
	clock  *truetime.WallClock
	shards []*shard
	seq    atomic.Int64 // transaction IDs and wound-wait priorities
	stats  Stats
	// metrics is the OpMetrics-scrapeable registry plus the stage
	// histograms the coordinators record into (see metrics.go). Built in
	// New before the shard loops start, so loop instrumentation never
	// races construction.
	metrics *serverMetrics
	// admitting is Config.AdmitQPS > 0: the serving paths consult the
	// per-shard admission gates (see admission.go). Set before the gates
	// and metrics are built, immutable after Open.
	admitting bool

	// reads is the registry of in-flight snapshot reads, the source of the
	// floor the shard stores (and, through the replication log, the
	// followers') are trimmed to; see readFloor.
	reads readFloor

	// roPool recycles snapshot-read fan-out scratch (see roScratch);
	// txnPool recycles the RW coordinator's per-transaction plan (see
	// txnPlan).
	roPool  sync.Pool
	txnPool sync.Pool

	quit chan struct{}
	// stopping closes at the start of Close, before the connection and
	// coordinator drain. It is what the SyncRepl ack gate parks on: a
	// flush waiting for a follower ack stalls its whole apply loop, and
	// any coordinator queued behind it would keep Close's drain — and so
	// quit, which closes only after the drain — from ever finishing. By
	// the time stopping fires the listener and every conn are already
	// closed, so the responses the woken flush releases reach no client.
	stopping chan struct{}
	wg       sync.WaitGroup
	// loopWG tracks the shard apply loops and the replication heartbeat —
	// the only goroutines that append to replication groups. Close waits
	// for them before tearing the groups down, so no append can race a
	// closing follower transport.
	loopWG sync.WaitGroup

	// recovery is what Open's replay found (zero on a fresh or undurable
	// server); crashed is set by Crash and the WAL crash points.
	recovery RecoveryStats
	crashed  atomic.Bool

	// fencedEpoch is nonzero once a promotion deposed this leader: the
	// epoch that fenced it. Serving paths answer NotLeader with it and
	// newLeader (the promoted leader's address, for client redirect), and
	// the shard logs and groups refuse further appends (see fenceTo).
	fencedEpoch atomic.Uint64
	newLeader   atomic.Value // string

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	active map[uint64]struct{} // transaction IDs currently executing
	closed bool
	// closeDone makes Close blocking-idempotent: every caller returns only
	// once the first caller's teardown has fully finished, which is what
	// lets a crash-triggered asynchronous Close and a test's deferred
	// Close race safely before the data directory is reopened.
	closeDone chan struct{}

	// replMu guards the out-of-process replica registry (see repl.go).
	replMu   sync.Mutex
	replicas map[string]*replicaReg
}

// New returns a server with started shard loops. Call Start or Serve to
// accept connections, and Close to shut down. It panics if the data
// directory cannot be recovered — durable callers that want the error
// use Open.
func New(cfg Config) *Server {
	srv, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return srv
}

// Open builds the server and, when Config.DataDir is set, recovers it:
// every shard's checkpoint is installed and its log suffix replayed
// (rebuilding store contents, the prepared set, the safe-time floor, and
// the replication group position), dangling 2PC prepares are resolved —
// committed iff any shard durably logged the commit record, aborted
// otherwise (presumed abort; see recovery.go) — and the resolutions are
// made durable before the shard loops start. Recovery() reports what
// replay found.
func Open(cfg Config) (*Server, error) { return open(cfg, nil) }

// open is the shared constructor behind Open (seed nil: fresh or
// crash-recovered) and OpenPromoted (seed non-nil: a follower's replicated
// state becoming the new view's leader; see promote.go).
func open(cfg Config, seed []PromotedShard) (*Server, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = wire.MaxFrame
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	// Clamp at config time so no value of -apply-batch can reach the
	// shard drain loop unusable: 0 means "use the default", but an
	// explicit negative is an operator asking for the smallest batch, not
	// the largest — clamp it to 1 (the entry-at-a-time pipeline), never
	// silently promote it to 64.
	if cfg.ApplyBatchMax < 0 {
		cfg.ApplyBatchMax = 1
	} else if cfg.ApplyBatchMax == 0 {
		cfg.ApplyBatchMax = 64
	}
	if cfg.AdmitQueue <= 0 {
		cfg.AdmitQueue = 64
	}
	if cfg.AdmitDeadline <= 0 {
		cfg.AdmitDeadline = 5 * time.Millisecond
	}
	if cfg.ReplicaHeartbeat <= 0 {
		cfg.ReplicaHeartbeat = 250 * time.Microsecond
	}
	if cfg.FollowerReadTimeout <= 0 {
		cfg.FollowerReadTimeout = 5 * time.Millisecond
	}
	if cfg.ReplicaEvictAfter <= 0 {
		cfg.ReplicaEvictAfter = 10 * time.Second
	}
	if cfg.DataDir != "" && cfg.CheckpointBytes <= 0 {
		cfg.CheckpointBytes = 4 << 20
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	srv := &Server{
		cfg:       cfg,
		clock:     truetime.NewWallClock(cfg.Epsilon),
		quit:      make(chan struct{}),
		stopping:  make(chan struct{}),
		conns:     map[net.Conn]struct{}{},
		active:    map[uint64]struct{}{},
		replicas:  map[string]*replicaReg{},
		closeDone: make(chan struct{}),
	}
	srv.reads.clock = srv.clock
	srv.reads.lag = truetime.Timestamp(readLag(&cfg))
	srv.roPool.New = func() any { return srv.newROScratch() }
	srv.txnPool.New = func() any { return srv.newTxnPlan() }
	chaos := replication.Chaos{
		DelayedApplies: cfg.ChaosDelayedApplies,
		ApplyDelay:     chaosApplyDelay,
	}
	replicated := cfg.Replicas > 1 || cfg.AllowReplicaJoin
	for i := 0; i < cfg.Shards; i++ {
		s := newShard(i, srv)
		if replicated {
			s.repl = replication.NewGroup(i, cfg.Replicas-1, chaos)
			if cfg.ReplLogRetain > 0 {
				s.repl.SetRetain(cfg.ReplLogRetain)
			}
		}
		srv.shards = append(srv.shards, s)
	}
	// Gates before metrics: the admission.tokens gauge reads them.
	if srv.admitting = cfg.AdmitQPS > 0; srv.admitting {
		for _, s := range srv.shards {
			s.gate = newAdmitGate(s)
		}
	}
	srv.metrics = newServerMetrics(srv)
	if seed != nil {
		// Promotion: adopt the candidate's replicated state instead of
		// recovering from disk (the directory, if any, is fresh).
		if err := srv.installSeed(seed); err != nil {
			return nil, err
		}
	} else if cfg.DataDir != "" {
		// Recover before the loops start: replay runs single-threaded with
		// direct access to shard state, exactly like the loops will have.
		if err := srv.recover(); err != nil {
			return nil, err
		}
	}
	// After recovery: replay may have raised the epoch above the configured
	// one (a restarted leader resumes its recovered view, never regresses).
	for _, s := range srv.shards {
		if s.repl != nil {
			s.repl.SetEpoch(srv.cfg.Epoch)
		}
	}
	for _, s := range srv.shards {
		srv.loopWG.Add(1)
		go s.loop()
	}
	if replicated {
		srv.loopWG.Add(1)
		go srv.heartbeatLoop()
	}
	return srv, nil
}

// Recovery reports what Open's replay found (zero values on a fresh or
// undurable server).
func (srv *Server) Recovery() RecoveryStats { return srv.recovery }

// Crashed reports whether the server died by Crash or a WAL crash point
// rather than a clean Close.
func (srv *Server) Crashed() bool { return srv.crashed.Load() }

// Crash kills the server the way kill -9 would: every shard log is
// crashed first — freezing durability where the last fsync left it and
// failing every later flush, so nothing is acknowledged past the
// instant of death — and then the server tears
// down without the final syncs a clean Close performs. The data
// directory is left exactly as a real crash would leave it.
func (srv *Server) Crash() {
	srv.crashed.Store(true)
	for _, s := range srv.shards {
		if s.wal != nil {
			s.wal.Crash()
		}
	}
	srv.Close()
}

// heartbeatLoop periodically pushes a watermark-only entry through every
// shard's replication group, so follower t_safe tracks real time even on
// idle shards — without it a freshly drawn t_read would always be ahead
// of the last data-bearing entry's watermark and every snapshot read
// would fall back to the leader.
func (srv *Server) heartbeatLoop() {
	defer srv.loopWG.Done()
	t := time.NewTicker(srv.cfg.ReplicaHeartbeat)
	defer t.Stop()
	reap := time.NewTicker(srv.cfg.ReplicaEvictAfter / 4)
	defer reap.Stop()
	beats := make([]func(), len(srv.shards))
	for i, s := range srv.shards {
		s := s
		beats[i] = func() { s.replicate(replication.EntryHeartbeat, 0, 0, nil) }
	}
	for {
		select {
		case <-t.C:
			// Sampling at the heartbeat cadence gives the ack-lag
			// histograms a uniform-in-time view of follower staleness
			// (per-ack recording would overweight chatty replicas).
			srv.metrics.sampleReplication(srv)
			for i, s := range srv.shards {
				// Blocking send: only data entries otherwise advance the
				// watermark, and a shard saturated by leader-served reads
				// produces none — dropping its heartbeat would freeze its
				// followers exactly when the leader most needs the relief.
				// The queue drains in microseconds, so a full channel
				// delays the beat rather than losing it.
				if !s.run(beats[i]) {
					return
				}
			}
		case <-reap.C:
			srv.reapDeadReplicas()
		case <-srv.quit:
			return
		}
	}
}

// Replicas returns the configured copies per shard (1 = unreplicated).
func (srv *Server) Replicas() int { return srv.cfg.Replicas }

// KillReplica simulates the loss of backup node i: transport i of every
// shard's replication group stops serving and its acknowledgments stop
// counting. Reads fail over to the leader; the shard keeps serving. It
// reports whether such a follower existed. The hook is transport-agnostic
// — in-process channel followers and joined socket replicas die the same
// way.
func (srv *Server) KillReplica(i int) bool {
	any := false
	for _, s := range srv.shards {
		if s.repl == nil {
			continue
		}
		if f := s.repl.Transport(i); f != nil {
			f.Kill()
			any = true
		}
	}
	return any
}

// DropReplicaAcks severs backup node i's acknowledgment path on every
// shard: the replicas keep applying but their advertised t_safe freezes,
// so the router drains reads back to the leader. It reports whether such
// a follower existed.
func (srv *Server) DropReplicaAcks(i int) bool {
	any := false
	for _, s := range srv.shards {
		if s.repl == nil {
			continue
		}
		if f := s.repl.Transport(i); f != nil {
			f.DropAcks()
			any = true
		}
	}
	return any
}

// ReplicationLag reports how far the freshest follower t_safe trails the
// server clock, maximized over shards (0 when unreplicated) — the extra
// staleness bound a follower read pays before its park wakes.
func (srv *Server) ReplicationLag() time.Duration {
	var lag time.Duration
	for _, s := range srv.shards {
		if s.repl == nil || !s.repl.Active() {
			continue
		}
		if d := srv.clock.Since(s.repl.TSafe()); d > lag {
			lag = d
		}
	}
	return lag
}

// Stats returns the server's counters.
func (srv *Server) Stats() *Stats { return &srv.stats }

// Shards returns the number of keyspace partitions.
func (srv *Server) Shards() int { return len(srv.shards) }

// nextSeq draws the next value of the global sequencer.
func (srv *Server) nextSeq() int64 { return srv.seq.Add(1) }

// newTxnID draws a fresh transaction ID; its sequencer value doubles as
// the wound-wait priority (smaller is older).
func (srv *Server) newTxnID() locks.TxnID {
	return locks.TxnID{Seq: uint64(srv.nextSeq())}
}

// Start listens on addr ("host:port"; ":0" picks a free port) and serves
// in the background. It returns once the listener is up; Addr reports the
// bound address.
func (srv *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		ln.Close()
		return errClosed
	}
	srv.ln = ln
	srv.mu.Unlock()
	srv.metrics.reg.SetSource("kv@" + ln.Addr().String())
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		srv.serve(ln)
	}()
	return nil
}

// Serve accepts connections on ln until Close. It is the blocking
// alternative to Start.
func (srv *Server) Serve(ln net.Listener) error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		ln.Close()
		return errClosed
	}
	srv.ln = ln
	srv.mu.Unlock()
	return srv.serve(ln)
}

func (srv *Server) serve(ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			if srv.isClosed() {
				return nil
			}
			return err
		}
		srv.mu.Lock()
		if srv.closed {
			srv.mu.Unlock()
			nc.Close()
			return nil
		}
		srv.conns[nc] = struct{}{}
		// Add under mu: Close marks closed under mu before it Waits, so
		// a handler is either registered before the Wait or never starts.
		srv.wg.Add(1)
		srv.mu.Unlock()
		srv.stats.Conns.Add(1)
		go func() {
			defer srv.wg.Done()
			srv.handleConn(nc)
		}()
	}
}

// Addr returns the listening address ("" before Start).
func (srv *Server) Addr() string {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.ln == nil {
		return ""
	}
	return srv.ln.Addr().String()
}

// Close shuts the server down: stop accepting, close every connection,
// wait for all handlers (and their in-flight operations) to drain, and
// only then stop the shard loops — handlers never wait on a dead shard.
// Clients of in-flight operations see the connection drop. Close blocks
// every caller until teardown is complete, even callers that lost the
// race to start it, so reopening the data directory after Close (or a
// crash-triggered Close) returns is always safe.
func (srv *Server) Close() {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		<-srv.closeDone
		return
	}
	srv.closed = true
	if srv.ln != nil {
		srv.ln.Close()
	}
	for nc := range srv.conns {
		nc.Close()
	}
	srv.mu.Unlock()
	close(srv.stopping)
	srv.wg.Wait()
	close(srv.quit)
	// Only after every appender (shard loops, heartbeat, checkpoint
	// writers) has returned is it safe to close the replication
	// transports and the shard logs.
	srv.loopWG.Wait()
	for _, s := range srv.shards {
		if s.repl != nil {
			s.repl.Close()
		}
		if s.wal != nil {
			s.wal.Close() // syncs any tail batch unless crashed
		}
	}
	close(srv.closeDone)
}

func (srv *Server) isClosed() bool {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.closed
}

// handleConn reads framed requests and dispatches them. Cheap operations
// run on shard apply loops; multi-shard operations get a coordinator
// goroutine each, so one connection can have many in flight (pipelining)
// and responses return in completion order, matched by request ID.
func (srv *Server) handleConn(nc net.Conn) {
	cw := newConnWriter(nc)
	cw.ObserveBatches(srv.metrics.batchOcc)
	fr := wire.NewFrameReader(bufio.NewReaderSize(nc, 64<<10), srv.cfg.MaxFrame)
	var pending sync.WaitGroup
	for {
		req, err := fr.ReadRequest()
		if err != nil {
			break
		}
		srv.dispatch(req, cw, &pending)
	}
	// Let every in-flight operation finish before tearing down the
	// writer: responses still matter to a client that half-closed its
	// send side after pipelining requests.
	pending.Wait()
	cw.Close()
	srv.mu.Lock()
	delete(srv.conns, nc)
	srv.mu.Unlock()
	nc.Close()
}

// rejectNotLeader answers serving-path requests once the server has been
// fenced out of its view: the NotLeader flag, the fencing epoch, and the
// promoted leader's address (Value) let the client redirect and retry
// instead of parsing an error string. Reports whether it sent.
func (srv *Server) rejectNotLeader(req *wire.Request, cw *connWriter) bool {
	e := srv.fencedEpoch.Load()
	if e == 0 {
		return false
	}
	addr, _ := srv.newLeader.Load().(string)
	srv.stats.NotLeaderRejects.Add(1)
	cw.Send(&wire.Response{
		ID: req.ID, Op: req.Op, Err: wire.ErrMsgNotLeader,
		NotLeader: true, Epoch: e, Value: addr,
	})
	return true
}

func (srv *Server) dispatch(req *wire.Request, cw *connWriter, pending *sync.WaitGroup) {
	switch req.Op {
	case wire.OpGet, wire.OpPut, wire.OpBeginTxn, wire.OpCommit, wire.OpMultiGet,
		wire.OpMultiPut, wire.OpROTxn, wire.OpFence:
		if srv.rejectNotLeader(req, cw) {
			return
		}
	}
	switch req.Op {
	case wire.OpGet:
		s := srv.shardFor(req.Key)
		if !srv.admitFast(s, req, cw, pending) {
			return
		}
		done := s.admitDone(pending.Done)
		pending.Add(1)
		if !s.run(func() { s.get(req, cw, done) }) {
			pending.Done()
		}
	case wire.OpPut:
		s := srv.shardFor(req.Key)
		if !srv.admitFast(s, req, cw, pending) {
			return
		}
		done := s.admitDone(pending.Done)
		pending.Add(1)
		if !s.run(func() { s.put(req, cw, done) }) {
			pending.Done()
		}
	case wire.OpBeginTxn:
		cw.Send(&wire.Response{
			ID: req.ID, Op: req.Op, OK: true, TxnID: uint64(srv.nextSeq()),
		})
	case wire.OpCommit, wire.OpMultiGet, wire.OpMultiPut:
		pending.Add(1)
		go func() {
			defer pending.Done()
			srv.commit(req, cw)
		}()
	case wire.OpROTxn:
		pending.Add(1)
		go func() {
			defer pending.Done()
			srv.readOnly(req, cw)
		}()
	case wire.OpFence:
		pending.Add(1)
		go func() {
			defer pending.Done()
			srv.fence(req, cw)
		}()
	case wire.OpReplEntry:
		// Long-polls the shard log, so it runs off the connection's read
		// loop like any other slow operation.
		pending.Add(1)
		go func() {
			defer pending.Done()
			srv.replPull(req, cw)
		}()
	case wire.OpReplAck:
		srv.replAck(req, cw)
	case wire.OpReplSnapshot:
		pending.Add(1)
		go func() {
			defer pending.Done()
			srv.replSnapshot(req, cw)
		}()
	case wire.OpView:
		cw.Send(srv.viewResponse(req))
	case wire.OpPromote:
		srv.stepDown(req, cw)
	case wire.OpMetrics:
		cw.Send(obs.MetricsResponse(req, srv.metrics.reg))
	default:
		cw.Send(&wire.Response{
			ID: req.ID, Op: req.Op, Err: fmt.Sprintf("unhandled op %v", req.Op),
		})
	}
}

// commit runs the transactional ops (OpCommit, OpMultiGet, OpMultiPut)
// through the coordinator and renders the outcome.
func (srv *Server) commit(req *wire.Request, cw *connWriter) {
	readKeys, writeKVs := req.Keys, req.KVs
	switch req.Op {
	case wire.OpMultiGet:
		writeKVs = nil
	case wire.OpMultiPut:
		readKeys = nil
	}
	txnID := req.TxnID
	if txnID == 0 {
		txnID = uint64(srv.nextSeq())
	}
	reads, readVers, version, err := srv.runTxn(txnID, readKeys, writeKVs)
	resp := &wire.Response{ID: req.ID, Op: req.Op, TxnID: txnID}
	var ovl *overloadError
	if errors.As(err, &ovl) {
		// Admission rejection: a first-class outcome, not a generic error
		// — the Overloaded flag and retry hint let the client distinguish
		// shed load (back off) from a wounded transaction (retry now).
		resp.Err = wire.ErrMsgOverloaded
		resp.Overloaded = true
		resp.RetryAfterUS = ovl.retryAfterUS
	} else if err != nil {
		resp.Err = err.Error()
	} else {
		resp.OK = true
		resp.Version = version
		resp.KVs = reads
		resp.Vers = readVers
		srv.stats.Commits.Add(1)
	}
	cw.Send(resp)
}

// fence is the real-time fence: a barrier through every shard's apply
// loop, so every operation the server accepted before the fence has been
// applied when the fence responds. The response carries the server's
// current TT.now().latest, the Spanner-RSS fence timestamp of §5.1:
// merging it into a session's t_min guarantees every later snapshot read,
// on any session that inherits the t_min, reflects all pre-fence state.
func (srv *Server) fence(req *wire.Request, cw *connWriter) {
	done := make(chan struct{}, len(srv.shards))
	for _, s := range srv.shards {
		s.run(func() { done <- struct{}{} })
	}
	for range srv.shards {
		select {
		case <-done:
		case <-srv.quit:
			cw.Send(&wire.Response{ID: req.ID, Op: req.Op, Err: errClosed.Error()})
			return
		}
	}
	srv.stats.Fences.Add(1)
	cw.Send(&wire.Response{
		ID: req.ID, Op: req.Op, OK: true,
		Version: int64(srv.clock.Now().Latest),
	})
}

// admitTxn registers a transaction ID as executing, rejecting duplicates
// (two concurrent commits under one ID would corrupt the lock tables).
func (srv *Server) admitTxn(id uint64) bool {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if _, dup := srv.active[id]; dup {
		return false
	}
	srv.active[id] = struct{}{}
	return true
}

func (srv *Server) retireTxn(id uint64) {
	srv.mu.Lock()
	delete(srv.active, id)
	srv.mu.Unlock()
}

// The batching response writer lives in internal/netio (shared with the
// queue server); connWriter remains as a local alias so the shard and
// coordinator code reads unchanged.
type connWriter = netio.ConnWriter

func newConnWriter(nc net.Conn) *connWriter { return netio.NewConnWriter(nc) }
