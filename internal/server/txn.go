package server

import (
	"errors"
	"sort"
	"time"

	"rsskv/internal/locks"
	"rsskv/internal/obs"
	"rsskv/internal/replication"
	"rsskv/internal/truetime"
	"rsskv/internal/wal"
	"rsskv/internal/wire"
)

// Transaction outcomes surfaced to the wire layer.
var (
	// errAborted reports a wound by an older conflicting transaction; the
	// client should retry under the same transaction ID.
	errAborted = errors.New(wire.ErrMsgAborted)
	// errClosed reports that the server shut down mid-operation.
	errClosed = errors.New("server closed")
	// errTxnActive reports a commit for a transaction ID that is already
	// executing (a client protocol violation).
	errTxnActive = errors.New("transaction already in flight")
)

// txnPlan is everything one transaction needs while it runs: its footprint
// grouped by shard, the coordinator's notification channels, and — one slot
// per shard — the inputs and the pre-bound closures of the lock, prepare,
// apply and abort steps, so that running a step submits a func() that
// already exists instead of allocating a closure per shard and phase. Plans
// are pooled on the server (srv.txnPool), mirroring the RO coordinator's
// scratch. Two things leave the plan's lifetime and are dropped for the
// garbage collector by release instead of being recycled: the per-shard
// write slices (they escape into the shard prepared sets and the
// replication log) and the result slices (they become the response).
type txnPlan struct {
	shards []int     // involved shard ids, ascending
	slots  []txnSlot // indexed by shard id

	written  map[string]int // write key -> index into its shard's write slice
	seenRead map[string]bool

	// What the coordinator decides between phases, read by the steps: the
	// transaction's identity, the advertised earliest end time (before
	// prepare) and the commit timestamp (before apply).
	txn locks.TxnID
	tee truetime.Timestamp
	tc  truetime.Timestamp

	// The read results, in request order (first occurrence of each key).
	// Allocated per transaction; each apply step fills in its own shard's
	// positions (txnSlot.readPos), which no other shard touches.
	kvs  []wire.KV
	vers []int64

	// The coordinator's notification channels, pooled with the plan. All
	// are sized for the maximal footprint (every shard involved), so sends
	// never block. Reuse is safe because every send happens inside a shard
	// closure that the same shard's final closure for the transaction
	// (apply, or abort's release) is queued behind — and release only runs
	// after the coordinator drained that final round — so no send can land
	// after release drains the residue below.
	notify chan shardEvent // lock grants and wounds (2 events/shard)
	prepCh chan prepResult // prepare outcomes
	done   chan struct{}   // final-step completions (apply, or abort's release)

	// join collects one release per participant's apply closure, from the
	// shard flushes that follow them (see exposure.go).
	join exposureJoin

	trace obs.Trace // per-stage timeline for the slow-op log
}

// txnSlot is one shard's share of a plan.
type txnSlot struct {
	p *txnPlan
	s *shard

	reads   []string        // read keys, request order
	readPos []int           // where each read's result goes in p.kvs / p.vers
	writes  []wire.KV       // write set, first-occurrence order
	lockReq []locks.Request // union of both sets with lock modes

	// w is this shard's lock acquisition, registered in s.waiters from the
	// lock step until the transaction's final step here.
	w waiter

	// The steps as closures over this slot, bound once when the pool makes
	// the plan.
	lock, prepare, apply, abort func()
}

// prepResult is one shard's prepare-phase outcome.
type prepResult struct {
	ok bool
	tp truetime.Timestamp
}

func (srv *Server) newTxnPlan() *txnPlan {
	n := len(srv.shards)
	p := &txnPlan{
		slots:    make([]txnSlot, n),
		written:  map[string]int{},
		seenRead: map[string]bool{},
		notify:   make(chan shardEvent, 2*n),
		prepCh:   make(chan prepResult, n),
		done:     make(chan struct{}, n),
		join:     exposureJoin{ch: make(chan struct{}, 1)},
	}
	for i := range p.slots {
		sl := &p.slots[i]
		sl.p, sl.s = p, srv.shards[i]
		sl.lock, sl.prepare, sl.apply, sl.abort = sl.lockStep, sl.prepareStep, sl.applyStep, sl.abortStep
	}
	return p
}

// release resets the plan and returns it to the pool. Callers must not
// release a plan whose shard closures may still be queued (abandoned
// operations on a closing server leak their plan instead). Everything that
// holds a string is cleared, not truncated: the keys are views into the
// request's frame (see package wire), and a pooled plan must not pin it.
func (p *txnPlan) release(srv *Server) {
	for _, sid := range p.shards {
		sl := &p.slots[sid]
		clear(sl.reads)
		sl.reads = sl.reads[:0]
		sl.readPos = sl.readPos[:0]
		sl.writes = nil // escaped into prepared sets / replication log
		clear(sl.lockReq)
		sl.lockReq = sl.lockReq[:0]
	}
	p.shards = p.shards[:0]
	clear(p.written)
	clear(p.seenRead)
	p.kvs, p.vers = nil, nil // escaped into the response
	// Drain channel residue from paths that stop reading early: wounds
	// that raced the last grants, sibling prepares behind a failed one.
	for len(p.notify) > 0 {
		<-p.notify
	}
	for len(p.prepCh) > 0 {
		<-p.prepCh
	}
	for len(p.done) > 0 {
		<-p.done
	}
	p.trace.Reset()
	srv.txnPool.Put(p)
}

// plan dedupes the read and write sets and groups them by shard. A key in
// both sets is locked exclusively; duplicate writes keep the last value.
func (srv *Server) plan(txn locks.TxnID, readKeys []string, writeKVs []wire.KV) *txnPlan {
	p := srv.txnPool.Get().(*txnPlan)
	p.txn = txn
	prio := int64(txn.Seq)
	touch := func(sl *txnSlot) {
		if len(sl.reads) == 0 && len(sl.writes) == 0 && len(sl.lockReq) == 0 {
			p.shards = append(p.shards, sl.s.id)
		}
	}
	for _, kv := range writeKVs {
		sl := &p.slots[srv.shardFor(kv.Key).id]
		if i, dup := p.written[kv.Key]; dup {
			sl.writes[i].Value = kv.Value
			continue
		}
		touch(sl)
		p.written[kv.Key] = len(sl.writes)
		sl.writes = append(sl.writes, kv)
		sl.lockReq = append(sl.lockReq, locks.Request{
			Txn: txn, Key: kv.Key, Mode: locks.Exclusive, Prio: prio,
		})
	}
	nReads := 0
	for _, k := range readKeys {
		if p.seenRead[k] {
			continue
		}
		p.seenRead[k] = true
		sl := &p.slots[srv.shardFor(k).id]
		touch(sl)
		sl.reads = append(sl.reads, k)
		sl.readPos = append(sl.readPos, nReads)
		nReads++
		if _, w := p.written[k]; !w {
			sl.lockReq = append(sl.lockReq, locks.Request{
				Txn: txn, Key: k, Mode: locks.Shared, Prio: prio,
			})
		}
	}
	if nReads > 0 {
		p.kvs, p.vers = make([]wire.KV, nReads), make([]int64, nReads)
	}
	sort.Ints(p.shards)
	return p
}

// lockStep acquires the slot's footprint. Loop-only, like every step.
func (sl *txnSlot) lockStep() {
	s, txn := sl.s, sl.p.txn
	sl.w = waiter{notify: sl.p.notify, shard: s.id}
	for _, lr := range sl.lockReq {
		if s.lm.Acquire(lr) == locks.Waiting {
			sl.w.need++
		}
	}
	s.waiters[txn] = &sl.w // registered even if fully granted, for wound delivery
	if sl.w.need == 0 {
		sl.p.notify <- shardEvent{shard: s.id}
	}
	s.lm.Flush()
}

// prepareStep forecloses wounds (or observes one), chooses the shard's
// prepare timestamp and, if the shard owns writes, enters the prepared set.
func (sl *txnSlot) prepareStep() {
	s, p := sl.s, sl.p
	txn, txnID := p.txn, p.txn.Seq
	if s.lm.Wounded(txn) {
		p.prepCh <- prepResult{}
		return
	}
	s.lm.SetPrepared(txn)
	tp := s.nextTS()
	if len(sl.writes) > 0 {
		// The entry is a heap object of its own, not part of the slot: its
		// watcher list is handed to the release queue at resolution, and an
		// aborting transaction recycles its plan without waiting for that
		// queue to run.
		s.prepared[txnID] = &prepEntry{tp: tp, tee: p.tee, writes: sl.writes}
		// The record carries the write set (unlike the replication
		// entry) so recovery can rebuild the prepared entry and its
		// exclusive lock footprint.
		s.walAppend(wal.KindPrepare, txnID, tp, p.tee, sl.writes)
		s.replicate(replication.EntryPrepare, txnID, tp, nil)
	}
	if s.srv.cfg.ChaosDroppedLockRelease {
		// Chaos: drop the strict-2PL hold-until-apply rule and
		// release the footprint at prepare. Conflicting operations
		// now slip between the commit decision and its reads and
		// writes below — unprotected reads and lost updates the
		// checker must catch. ReleaseAll clears the wound mark, so
		// the apply phase proceeds as if undisturbed.
		delete(s.waiters, txn)
		s.lm.ReleaseAll(txn)
		s.lm.Flush()
	}
	p.prepCh <- prepResult{ok: true, tp: tp}
}

// applyStep commits the slot at p.tc: read the pre-state, install the
// writes, resolve the prepared entry, release the locks.
func (sl *txnSlot) applyStep() {
	s, p := sl.s, sl.p
	txn, txnID, tc := p.txn, p.txn.Seq, p.tc
	for i, k := range sl.reads {
		v := s.store.Latest(k)
		p.kvs[sl.readPos[i]] = wire.KV{Key: k, Value: v.Value}
		p.vers[sl.readPos[i]] = int64(v.TS)
	}
	for _, kv := range sl.writes {
		s.write(kv.Key, kv.Value, tc)
	}
	if tc > s.maxTS {
		s.maxTS = tc
	}
	if s.prepared[txnID] != nil {
		// Commit record first, then resolve: the flush that releases
		// the outcome to watchers then covers the record.
		s.walAppend(wal.KindCommit, txnID, tc, 0, sl.writes)
		s.resolvePrepared(txnID, true, tc)
		s.replicate(replication.EntryCommit, txnID, tc, sl.writes)
	}
	// Even a read-only participant joins: its reads may have
	// observed records still in the current batch.
	s.expose(exposure{join: &p.join})
	delete(s.waiters, txn)
	s.lm.ReleaseAll(txn)
	s.lm.Flush()
	p.done <- struct{}{}
}

// abortStep releases the transaction's locks and queued requests here and
// resolves its prepared entry, if any, as aborted.
func (sl *txnSlot) abortStep() {
	s, txn := sl.s, sl.p.txn
	if s.prepared[txn.Seq] != nil {
		// Abort record before the resolution, mirroring commit; no
		// durability wait follows — presumed abort means recovery
		// treats a missing resolution as an abort anyway.
		s.walAppend(wal.KindAbort, txn.Seq, 0, 0, nil)
		s.resolvePrepared(txn.Seq, false, 0)
		s.replicate(replication.EntryAbort, txn.Seq, 0, nil)
	}
	delete(s.waiters, txn)
	s.lm.ReleaseAll(txn)
	s.lm.Flush()
	sl.p.done <- struct{}{}
}

// runTxn executes a one-shot transaction: read every key in readKeys and
// install every write in writeKVs, atomically. It implements two-phase
// commit over the shard apply loops with strict two-phase locking and
// TrueTime commit timestamps (§5):
//
//	lock    acquire the whole footprint on every shard (wound-wait
//	        arbitrates conflicts; acquisition is concurrent across shards)
//	prepare mark the transaction unwoundable everywhere, or abort if a
//	        wound already landed; each shard chooses a prepare timestamp
//	        t_p above its safe-time floor and, if it owns writes, enters
//	        the transaction into its prepared set with the advertised
//	        earliest end time t_ee
//	apply   commit at t_c = max t_p: read the pre-state, install the
//	        writes at t_c, advance the shard's safe-time floor, resolve
//	        the prepared entry (waking snapshot reads), release locks
//	wait    commit wait: respond only once t_c (and t_ee) have definitely
//	        passed, so commit-timestamp order extends real-time order
//
// Locks are held from before the first read until after the last write on
// every shard, so conflicting transactions serialize in commit-timestamp
// order and partial writes are never visible.
func (srv *Server) runTxn(txnID uint64, readKeys []string, writeKVs []wire.KV) (reads []wire.KV, readVers []int64, version int64, err error) {
	if txnID == 0 {
		txnID = uint64(srv.nextSeq())
	}
	// Admission first, before the duplicate-ID check, the plan, and any
	// lock or log touch: a rejected transaction must leave zero footprint
	// — no locks requested, no WAL record, no replication entry, nothing
	// in the active set — so the recorded history simply never contains
	// it. Charged to the bottleneck shard of its footprint.
	if g := srv.admitFor(readKeys, writeKVs, nil); g != nil {
		if ok, retryUS := g.admit(); !ok {
			return nil, nil, 0, &overloadError{retryAfterUS: retryUS}
		}
		defer g.refund() // commit, abort, or error: the capacity was spent
	}
	if !srv.admitTxn(txnID) {
		return nil, nil, 0, errTxnActive
	}
	defer srv.retireTxn(txnID)

	m := srv.metrics
	start := time.Now()
	txn := locks.TxnID{Seq: txnID}
	p := srv.plan(txn, readKeys, writeKVs)
	if len(p.shards) == 0 {
		p.release(srv)
		return nil, nil, int64(srv.clock.Now().Latest), nil // empty transaction
	}
	// abort tears the transaction down and recycles the plan — but only
	// after a complete abort: an abort abandoned by server shutdown may
	// leave shard closures queued that still reference the plan's slices,
	// so that path leaks the plan to the garbage collector instead. The
	// wound is the interesting latency story, so it records the timeline.
	abort := func(stage string) error {
		elapsed := time.Since(start)
		p.trace.Mark(stage, elapsed)
		m.slow.Record("rw-abort", txnID, &p.trace, elapsed)
		err := srv.abortTxn(p)
		if err == errAborted {
			p.release(srv)
		}
		return err
	}

	// Lock phase. notify is buffered for one grant plus one wound per
	// shard so lock-table callbacks never block an apply loop.
	notify := p.notify
	for _, sid := range p.shards {
		sl := &p.slots[sid]
		sl.s.run(sl.lock)
	}
	granted := 0
	for granted < len(p.shards) {
		select {
		case ev := <-notify:
			if ev.wounded {
				return nil, nil, 0, abort("wound-lock")
			}
			granted++
		case <-srv.quit:
			return nil, nil, 0, errClosed
		}
	}
	lockWait := time.Since(start)
	m.lockWait.Observe(int64(lockWait))
	p.trace.Mark("lock", lockWait)

	// Prepare phase: wounds race with the final grants above, so each
	// shard atomically either observes the wound or forecloses it. Every
	// shard chooses its prepare timestamp t_p above its safe-time floor —
	// the promise behind snapshot reads — and write owners enter the
	// prepared set so concurrent snapshot reads can see (and wait for or
	// skip) this transaction.
	tee := srv.clock.Now().Earliest + truetime.Timestamp(srv.cfg.CommitEstimate)
	p.tee = tee
	prepCh := p.prepCh
	for _, sid := range p.shards {
		sl := &p.slots[sid]
		sl.s.run(sl.prepare)
	}
	var tc truetime.Timestamp
	for range p.shards {
		select {
		case pr := <-prepCh:
			if !pr.ok {
				// Sibling prepares may not have run yet, but each shard's
				// abort step is queued behind its prepare step, so all of
				// them have finished with the plan when abort returns.
				return nil, nil, 0, abort("wound-prepare")
			}
			if pr.tp > tc {
				tc = pr.tp
			}
		case <-srv.quit:
			return nil, nil, 0, errClosed
		}
	}

	// Under the dropped-lock-release chaos the footprint is already free;
	// model a slow commit path so conflicting operations reliably land
	// inside the unprotected window between the commit decision and its
	// reads and writes below (the window a correct server's held locks
	// make unobservable).
	if srv.cfg.ChaosDroppedLockRelease {
		time.Sleep(500 * time.Microsecond)
	}

	// Apply phase: commit at t_c, the maximum prepare timestamp — above
	// every involved shard's safe-time floor, and chosen while every lock
	// in the footprint is held, which makes timestamp order, lock order,
	// and real-time order agree. Reads run before writes so a transaction
	// reads the pre-state of keys it also writes; resolving the prepared
	// entry wakes snapshot reads and watchers, and the locks are released
	// in the same loop iteration so no operation can observe the window
	// between them.
	p.tc = tc
	for _, sid := range p.shards {
		sl := &p.slots[sid]
		sl.s.run(sl.apply)
	}
	for range p.shards {
		select {
		case <-p.done:
		case <-srv.quit:
			return nil, nil, 0, errClosed
		}
	}
	applied := time.Since(start)
	m.prepareCommit.Observe(int64(applied - lockWait))
	p.trace.Mark("apply", applied)

	// Commit wait (§5, [22]): the response is the client's proof the
	// transaction finished, so it may not be sent until t_c has
	// definitely passed — that is what lets snapshot reads trust that a
	// completed write's timestamp is below any later-drawn t_read — nor
	// until the advertised earliest end time t_ee has passed. The
	// lost-commit-wait chaos skips exactly this step.
	if !srv.cfg.ChaosLostCommitWait {
		wait := tc
		if tee > wait {
			wait = tee
		}
		srv.clock.WaitUntilAfter(wait)
	}
	// The exposure gate, overlapped with commit wait above: the flushes
	// covering the participants' records have been running since apply, so
	// they have usually finished by now.
	if !p.join.wait(len(p.shards)) {
		p.release(srv)
		return nil, nil, 0, errClosed
	}
	total := time.Since(start)
	m.commitWait.Observe(int64(total - applied))
	m.txnTotal.Observe(int64(total))
	p.trace.Mark("commit-wait", total)
	m.slow.Record("rw-txn", txnID, &p.trace, total)

	// The apply steps left the read results in request order (dedup kept
	// the first occurrence of each key). Every shard closure has completed
	// (done drained), so the plan can be recycled.
	reads, readVers = p.kvs, p.vers
	p.release(srv)
	return reads, readVers, int64(tc), nil
}

// abortTxn releases the transaction's locks and queued requests on every
// involved shard, resolves any prepared entries as aborted (waking
// snapshot reads that were blocked on them), waits for the releases to
// land, and reports errAborted. ReleaseAll clears the wounded mark, so a
// retry under the same ID (and thus the same wound-wait priority) starts
// clean but keeps its age.
func (srv *Server) abortTxn(p *txnPlan) error {
	for _, sid := range p.shards {
		sl := &p.slots[sid]
		sl.s.run(sl.abort)
	}
	for range p.shards {
		select {
		case <-p.done:
		case <-srv.quit:
			return errClosed
		}
	}
	srv.stats.Aborts.Add(1)
	return errAborted
}
