// Package server is the networked serving layer: a concurrent TCP server
// that speaks the wire protocol and partitions the keyspace into shards by
// key hash.
//
// Each shard owns a multi-version store (internal/mvstore) and a lock table
// (internal/locks) and serializes all access to them through one apply
// loop: a goroutine draining a channel of closures. Connection handlers and
// transaction coordinators never touch shard state directly — they submit
// closures and wait on reply channels, which is the socket-world analogue
// of the simulator's single-threaded event handlers.
//
// The server is timestamp-native. Every mutation is assigned a TrueTime
// commit timestamp (truetime.WallClock) drawn while all its locks are
// held, floored by the shard's maxTS — the shard's promise that no future
// commit lands at or below any timestamp it has already assigned or
// served a snapshot at. Writes are applied into the multi-version store at
// their commit timestamps, and responses are withheld until the timestamp
// has definitely passed (commit wait), so commit-timestamp order extends
// real-time order: the read-write path is strictly serializable.
//
// Single-key reads and writes are one-shot transactions that fast-path
// inside a single loop iteration when their lock is free. Multi-key
// operations run two-phase commit with strict two-phase locking and
// wound-wait across shards (see txn.go): participants choose prepare
// timestamps and enter the shard's prepared set, the coordinator picks the
// commit timestamp as their maximum, and applies release the locks.
//
// Read-only transactions (see ro.go) never touch the lock table: they are
// served from the version store at a snapshot timestamp, waiting only for
// the prepared transactions §5's blocking rule requires — the t_min /
// t_safe machinery of the paper, ported from the simulator's
// internal/spanner shard. The recorded histories of both paths are checked
// against RSS.
package server

import (
	"strings"
	"sync/atomic"
	"time"

	"rsskv/internal/locks"
	"rsskv/internal/mvstore"
	"rsskv/internal/replication"
	"rsskv/internal/truetime"
	"rsskv/internal/wal"
	"rsskv/internal/wire"
)

// shardEvent is a lock-table notification delivered to a transaction
// coordinator: either this shard granted every requested lock, or the
// transaction was wounded here by an older conflicting transaction.
type shardEvent struct {
	shard   int
	wounded bool
}

// waiter tracks one in-flight lock acquisition on one shard.
type waiter struct {
	// need is the number of Waiting outcomes still ungranted.
	need int
	// notify receives the full-grant or wound event (multi-shard
	// transactions). It is buffered for two events per shard so lock
	// callbacks never block the apply loop.
	notify chan shardEvent
	// onReady, if set, runs inside the apply loop once all locks are
	// held (single-op fast path); it must release the locks itself.
	onReady func()
	shard   int
}

// prepEntry is one member of the shard's prepared set P (§5, Algorithm 2):
// a transaction that has passed prepare here but whose commit decision has
// not yet been applied. Its writes are buffered so snapshot reads that skip
// it can be completed from the buffer once the commit timestamp is known
// (§6 optimization 1).
type prepEntry struct {
	tp     truetime.Timestamp // prepare timestamp: lower bound on t_c
	tee    truetime.Timestamp // earliest end time of the transaction
	writes []wire.KV
	// watchers are RO coordinators that skipped this transaction and
	// subscribed to its outcome; each channel is buffered for the single
	// outcome event (see exposure.watchers).
	watchers []chan<- prepOutcome
}

// prepOutcome is a prepared transaction's resolution, delivered to RO
// watchers and used to unblock parked snapshot reads.
type prepOutcome struct {
	committed bool
	tc        truetime.Timestamp
	writes    []wire.KV // this shard's write set (coordinator filters keys)
}

// shard is one partition of the keyspace.
type shard struct {
	id      int
	srv     *Server
	ch      chan func()
	store   *mvstore.Store
	lm      *locks.Manager
	waiters map[locks.TxnID]*waiter

	// repl is the shard's replication group (nil when Config.Replicas is
	// 1): this apply loop is the primary, appending every prepare,
	// commit, and abort with a safe-time watermark so followers can serve
	// snapshot reads bounded by their replicated t_safe.
	repl *replication.Group
	// replBuf accumulates the current apply batch's log entries, appended
	// to the group in one AppendBatch per loop drain (flush) so the group
	// lock, transport hop, and watermark computation are paid per batch
	// instead of per entry. Loop-only.
	replBuf []replication.Entry
	// replTail is the highest data sequence this shard has ever appended
	// to the group — the position a synchronous flush must see
	// acknowledged before releasing. It is the running maximum over
	// batches, not the current batch's tail: a batch with no appends of its
	// own (snapshot reads resolved between write batches) still observed
	// the store state the last append produced. Loop-only.
	replTail uint64

	// wal is the shard's write-ahead log (nil when Config.DataDir is
	// unset). Every prepare, commit, and abort the loop applies is
	// appended as a record and group-committed by flush — at most one
	// fsync per loop drain.
	wal *wal.Log
	// exposed is the release queue: everything the current apply batch
	// wants to let out of the shard, held until flush has made the batch
	// durable and replicated (see exposure.go). Loop-only.
	exposed []exposure
	// walBytes counts log bytes synced since the last checkpoint cut;
	// crossing Config.CheckpointBytes schedules the next checkpoint.
	// Loop-only.
	walBytes int64
	// ckptBusy guards the single in-flight off-loop checkpoint writer.
	ckptBusy atomic.Bool

	// gate is the shard's admission gate (nil when Config.AdmitQPS is 0):
	// every serving-path arrival charged to this shard passes it before
	// touching any of the state above (see admission.go). The loop refunds
	// it per drain (completed) and feeds it fsync pressure (noteFsync).
	gate *admitGate

	// maxTS is the shard's safe-time floor: strictly below every future
	// prepare or commit timestamp this shard will assign. Serving a
	// snapshot read at t_read advances it to t_read (the leader-lease
	// promise of §5), which is what makes "no conflicting preparer with
	// t_p ≤ t_read" a stable condition rather than a race.
	maxTS truetime.Timestamp
	// prepared is the prepared set P, keyed by transaction ID.
	prepared map[uint64]*prepEntry
	// roBlocked are parked snapshot reads waiting on their blocking set B.
	roBlocked []*roWaiter

	// floor is the read floor the store was last advanced to: fetched from
	// the server's registry once per drain (no snapshot read anyone will use
	// executes below it — see readFloor), and stamped by flush on the
	// replication batch's tail so the followers' stores follow. Loop-only.
	floor truetime.Timestamp
	// written counts the versions this shard has put into its store
	// (starting from what recovery or a promotion seed left there), so
	// written − Len is what trimming has dropped. Loop-only; versions and
	// trimmed are its per-drain copies for the metrics scrape.
	written  int64
	versions atomic.Int64
	trimmed  atomic.Int64
}

func newShard(id int, srv *Server) *shard {
	s := &shard{
		id:       id,
		srv:      srv,
		ch:       make(chan func(), 256),
		store:    mvstore.New(),
		lm:       locks.NewManager(),
		waiters:  make(map[locks.TxnID]*waiter),
		prepared: make(map[uint64]*prepEntry),
	}
	s.lm.OnGrant = s.onGrant
	s.lm.OnWound = s.onWound
	return s
}

// nextTS returns a fresh timestamp greater than every timestamp this shard
// has assigned or promised (prepare timestamps, applied commit timestamps,
// and snapshot read timestamps), and at least TT.now().latest. Loop-only.
func (s *shard) nextTS() truetime.Timestamp {
	ts := s.srv.clock.Now().Latest
	if ts <= s.maxTS {
		ts = s.maxTS + 1
	}
	s.maxTS = ts
	return ts
}

// write installs one committed version. Loop-only.
func (s *shard) write(key, value string, ts truetime.Timestamp) {
	s.store.Write(key, value, ts)
	s.written++
}

// resolvePrepared removes a transaction from the prepared set, notifies RO
// watchers of its outcome, and re-evaluates parked snapshot reads whose
// blocking set included it. It reports whether the transaction had a
// prepared entry here (so the caller knows to replicate the resolution).
// Loop-only; a no-op for transactions that never prepared writes here.
func (s *shard) resolvePrepared(txnID uint64, committed bool, tc truetime.Timestamp) bool {
	p := s.prepared[txnID]
	if p == nil {
		return false
	}
	delete(s.prepared, txnID)
	if len(p.watchers) > 0 {
		// Call sites append the resolution record before resolving, so the
		// flush that releases the outcome covers it.
		s.expose(exposure{
			watchers: p.watchers,
			out:      prepOutcome{committed: committed, tc: tc, writes: p.writes},
		})
	}
	kept := s.roBlocked[:0]
	for _, w := range s.roBlocked {
		delete(w.await, txnID)
		if len(w.await) == 0 {
			s.roReply(w)
		} else {
			kept = append(kept, w)
		}
	}
	s.roBlocked = kept
	return true
}

// safeWatermark is the shard's replicated safe time: a timestamp w such
// that every commit at or below w has been applied here (and therefore
// appended to the log before any entry carrying w) and no future commit
// will land at or below w. Two bounds compose it:
//
//   - max(maxTS, TT.now().latest − 1): every future timestamp this shard
//     assigns comes from nextTS, which returns at least the larger of
//     maxTS+1 and the then-current TT.now().latest — strictly above both
//     terms (the clock is monotonic at nanosecond resolution).
//   - min over prepared t_p − 1: a transaction already prepared here may
//     still commit at any t_c ≥ t_p, below maxTS and below the clock, so
//     the watermark must stay under every outstanding prepare.
//
// The clock term is what lets heartbeats advance follower t_safe on idle
// shards: without it the watermark would freeze at the last data entry
// and every freshly drawn t_read would outrun it. Loop-only.
func (s *shard) safeWatermark() truetime.Timestamp {
	w := s.maxTS
	if c := s.srv.clock.Now().Latest - 1; c > w {
		w = c
	}
	for _, p := range s.prepared {
		if p.tp-1 < w {
			w = p.tp - 1
		}
	}
	return w
}

// replicate buffers one entry for the shard's replication log; the batch
// is appended by flush at the end of the current loop drain. A no-op
// on unreplicated shards. Loop-only.
//
// The log keeps its entries long after the request is gone, and the keys of
// a request's write set are views into the request's frame (see package
// wire), so this is where they are copied; the values already are copies
// of their own, shared with the store.
func (s *shard) replicate(kind replication.EntryKind, txnID uint64, ts truetime.Timestamp, writes []wire.KV) {
	if s.repl == nil {
		return
	}
	var owned []wire.KV
	if len(writes) > 0 {
		owned = make([]wire.KV, len(writes))
		for i, kv := range writes {
			owned[i] = wire.KV{Key: strings.Clone(kv.Key), Value: kv.Value}
		}
	}
	s.replBuf = append(s.replBuf, replication.Entry{Kind: kind, TxnID: txnID, TS: ts, Writes: owned})
}

// walAppend buffers one record on the shard's log, returning its LSN
// (0 on undurable shards). Loop-only.
func (s *shard) walAppend(kind wal.Kind, txnID uint64, ts, tee truetime.Timestamp, writes []wire.KV) uint64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.Append(wal.Record{
		Kind: kind, TxnID: txnID, TS: int64(ts), TEE: int64(tee), Writes: writes,
		Epoch: s.srv.cfg.Epoch,
	})
}

// maybeCheckpoint cuts a checkpoint when the log since the last cut has
// outgrown Config.CheckpointBytes. The cut itself happens here, on the
// loop, mirroring the replica-snapshot idiom: flush just synced, so the
// pending buffer is empty, the checkpoint's LSN is exactly AppendedLSN,
// and the dump, the replication position, and the watermark are one
// consistent picture. The expensive part — writing the dump and
// deleting covered segments — runs off-loop (writeCheckpoint), at most
// one in flight. Loop-only.
func (s *shard) maybeCheckpoint() {
	limit := s.srv.cfg.CheckpointBytes
	if limit <= 0 || s.walBytes < limit {
		return
	}
	if !s.ckptBusy.CompareAndSwap(false, true) {
		return // previous checkpoint still writing; re-tried next flush
	}
	s.walBytes = 0
	cp := &wal.Checkpoint{
		LSN:       s.wal.AppendedLSN(),
		Watermark: int64(s.safeWatermark()),
	}
	if s.repl != nil {
		cp.Seq = s.repl.NextSeq()
	}
	cp.Vals = s.dump()
	if err := s.wal.Rotate(); err != nil {
		s.ckptBusy.Store(false)
		return
	}
	// Re-log still-unresolved prepares into the fresh segment. Their
	// original records sit at or below the cut and the checkpoint captures
	// only the store — without the re-log, deleting the covered segments
	// would lose the prepared set a recovery needs to rebuild. The records
	// must be durable before those segments can go, so they are synced
	// here (a second fsync, but only on checkpoints with 2PC in flight).
	if len(s.prepared) > 0 {
		for id, p := range s.prepared {
			s.walAppend(wal.KindReprepare, id, p.tp, p.tee, p.writes)
		}
		if _, err := s.wal.Sync(cp.Watermark); err != nil {
			s.ckptBusy.Store(false)
			return
		}
	}
	s.srv.loopWG.Add(1)
	go s.writeCheckpoint(cp)
}

// dump copies the store for a checkpoint or a catch-up snapshot: every
// version it holds, in one slice made at its final size — the loop is not
// serving while it fills. Loop-only (or before the loops start).
func (s *shard) dump() []wire.ReplVal {
	vals := make([]wire.ReplVal, 0, s.store.Len())
	s.store.Dump(func(key string, v mvstore.Version) {
		vals = append(vals, wire.ReplVal{Key: key, Value: v.Value, TS: int64(v.TS)})
	})
	return vals
}

// writeCheckpoint installs the cut off the loop and deletes the
// segments it covers. Any failure simply leaves the previous checkpoint
// and the full log in place — recovery is unaffected, only longer.
func (s *shard) writeCheckpoint(cp *wal.Checkpoint) {
	defer s.srv.loopWG.Done()
	defer s.ckptBusy.Store(false)
	start := time.Now()
	n, err := s.wal.WriteCheckpoint(cp)
	if err != nil {
		return
	}
	s.srv.metrics.ckptBytes.Observe(int64(n))
	s.srv.metrics.ckptDur.ObserveSince(start)
	s.wal.RemoveObsoleteSegments(cp.LSN)
}

// loop drains submitted closures until the server closes. Each wakeup
// drains up to Config.ApplyBatchMax waiting closures back-to-back, then
// flushes their buffered replication entries as one batch — the per-batch
// amortization of the group lock and transport hops. The first receive
// blocks (an idle shard costs nothing); the rest are non-blocking, so an
// unloaded shard still runs every closure immediately with batch size 1.
func (s *shard) loop() {
	defer s.srv.loopWG.Done()
	depth := s.srv.metrics.applyDepth
	batch := s.srv.metrics.applyBatch
	max := s.srv.cfg.ApplyBatchMax
	s.written = int64(s.store.Len())
	s.versions.Store(s.written)
	for {
		select {
		case fn := <-s.ch:
			// One read floor per drain: its writes trim to it, its flush
			// ships it. Any floor stays valid once computed, so the drain's
			// own snapshot reads are at or above it too.
			if f := s.srv.reads.floor(); f > s.floor {
				s.floor = f
				s.store.Advance(f)
			}
			// Queue depth at dequeue: how many closures were waiting
			// behind this one. The saturation signal for the shard.
			depth.Observe(int64(len(s.ch)))
			fn()
			n := 1
		drain:
			for n < max {
				select {
				case fn := <-s.ch:
					depth.Observe(int64(len(s.ch)))
					fn()
					n++
				default:
					break drain
				}
			}
			batch.Observe(int64(n))
			s.flush()
			held := int64(s.store.Len())
			s.versions.Store(held)
			s.trimmed.Store(s.written - held)
		case <-s.srv.quit:
			// Graceful exit: flush the tail batch so everything already
			// appended becomes durable and every queued exposure is
			// released before the loop (the only flusher) goes away.
			s.flush()
			return
		}
	}
}

// run submits fn to the apply loop, reporting whether it was accepted.
// Shard loops outlive every connection handler (Close drains handlers
// before stopping the loops), so false is only ever seen by stragglers
// racing a shutdown; coordinators waiting on replies select on srv.quit
// as well.
func (s *shard) run(fn func()) bool {
	select {
	case s.ch <- fn:
		return true
	case <-s.srv.quit:
		return false
	}
}

func (s *shard) onGrant(req locks.Request) {
	w := s.waiters[req.Txn]
	if w == nil {
		return
	}
	w.need--
	if w.need > 0 {
		return
	}
	if w.onReady != nil {
		delete(s.waiters, req.Txn)
		w.onReady()
		return
	}
	w.notify <- shardEvent{shard: w.shard}
}

func (s *shard) onWound(txn locks.TxnID) {
	// Single-op waiters (onReady) are never wounded: they hold locks only
	// inside a synchronous apply-loop window, and wound-wait only wounds
	// holders. Multi-shard coordinators learn of the wound and abort.
	if w := s.waiters[txn]; w != nil && w.onReady == nil {
		w.notify <- shardEvent{shard: w.shard, wounded: true}
	}
}

// get serves a single-key read: take a shared lock, read the newest
// version, release. The fast path completes in one loop iteration; done
// tells the connection handler the response has been produced.
func (s *shard) get(req *wire.Request, cw *connWriter, done func()) {
	txn := s.srv.newTxnID()
	apply := func() {
		v := s.store.Latest(req.Key)
		s.lm.ReleaseAll(txn)
		resp := &wire.Response{
			ID: req.ID, Op: req.Op, OK: true,
			Value: v.Value, Version: int64(v.TS),
		}
		// The version just read may sit in the current unflushed batch.
		s.expose(exposure{cw: cw, resp: resp, done: done})
		s.lm.Flush()
		s.srv.stats.Gets.Add(1)
	}
	s.acquireOne(txn, req.Key, locks.Shared, apply)
}

// put serves a single-key write: take an exclusive lock, draw a TrueTime
// commit timestamp, install the version, release. The response is withheld
// until the timestamp has definitely passed (commit wait) — off the apply
// loop, so a wait never stalls the shard; with a nanosecond-resolution
// clock the wait has usually elapsed by the time the store write lands.
func (s *shard) put(req *wire.Request, cw *connWriter, done func()) {
	txn := s.srv.newTxnID()
	apply := func() {
		ts := s.nextTS()
		s.write(req.Key, req.Value, ts)
		wkvs := []wire.KV{{Key: req.Key, Value: req.Value}}
		s.walAppend(wal.KindCommit, uint64(txn.Seq), ts, 0, wkvs)
		s.replicate(replication.EntryCommit, uint64(txn.Seq), ts, wkvs)
		s.lm.ReleaseAll(txn)
		s.lm.Flush()
		s.srv.stats.Puts.Add(1)
		// Commit wait and the flush overlap: the response is released after
		// both the record's flush and ts passing.
		s.expose(exposure{
			cw:   cw,
			resp: &wire.Response{ID: req.ID, Op: req.Op, OK: true, Version: int64(ts)},
			wait: ts,
			done: done,
		})
	}
	s.acquireOne(txn, req.Key, locks.Exclusive, apply)
}

// acquireOne runs apply once txn holds key in the given mode, either
// immediately or from the lock table's grant callback.
func (s *shard) acquireOne(txn locks.TxnID, key string, mode locks.Mode, apply func()) {
	out := s.lm.Acquire(locks.Request{Txn: txn, Key: key, Mode: mode, Prio: int64(txn.Seq)})
	if out == locks.Granted {
		apply()
		return
	}
	s.waiters[txn] = &waiter{need: 1, onReady: apply, shard: s.id}
	s.lm.Flush()
}

// shardFor maps a key to its owning shard by FNV-1a hash, inlined to keep
// the hottest path (every single op, every key of every transaction)
// allocation-free.
func (srv *Server) shardFor(key string) *shard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return srv.shards[h%uint32(len(srv.shards))]
}
