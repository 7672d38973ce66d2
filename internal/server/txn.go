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

// txnPlan is a transaction's footprint, grouped by shard. Plans are
// pooled on the server (srv.txnPool): the maps and the read/lock slices
// are reused across transactions, mirroring the RO coordinator's scratch.
// The per-shard write slices are the exception — they escape the
// transaction's lifetime into the shard prepared sets and the replication
// log, so release() drops them for the garbage collector instead of
// recycling their backing arrays.
type txnPlan struct {
	shards  []int             // involved shard ids, ascending
	reads   [][]string        // read keys per shard id, request order
	writes  [][]wire.KV       // write set per shard id, first-occurrence order
	lockReq [][]locks.Request // union of both sets with lock modes, per shard id

	written  map[string]int // write key -> index into its shard's write slice
	seenRead map[string]bool

	// The coordinator's notification channels, pooled with the plan. All
	// are sized for the maximal footprint (every shard involved), so sends
	// never block. Reuse is safe because every send happens inside a shard
	// closure that the same shard's final closure for the transaction
	// (apply, or abort's release) is queued behind — and release only runs
	// after the coordinator drained that final round — so no send can land
	// after release drains the residue below.
	notify  chan shardEvent  // lock grants and wounds (2 events/shard)
	prepCh  chan prepResult  // prepare outcomes
	applyCh chan applyResult // apply-phase read results
	abortCh chan struct{}    // abort-release completions

	// join collects one release per participant's apply closure, from the
	// shard flushes that follow them (see exposure.go).
	join exposureJoin

	trace obs.Trace // per-stage timeline for the slow-op log
}

// prepResult is one shard's prepare-phase outcome.
type prepResult struct {
	ok bool
	tp truetime.Timestamp
}

// applyResult is one shard's apply-phase outcome: the read results with
// their version witnesses.
type applyResult struct {
	kvs  []wire.KV
	vers []int64
}

func (srv *Server) newTxnPlan() *txnPlan {
	n := len(srv.shards)
	return &txnPlan{
		reads:    make([][]string, n),
		writes:   make([][]wire.KV, n),
		lockReq:  make([][]locks.Request, n),
		written:  map[string]int{},
		seenRead: map[string]bool{},
		notify:   make(chan shardEvent, 2*n),
		prepCh:   make(chan prepResult, n),
		applyCh:  make(chan applyResult, n),
		abortCh:  make(chan struct{}, n),
		join:     exposureJoin{ch: make(chan struct{}, 1)},
	}
}

// release resets the plan and returns it to the pool. Callers must not
// release a plan whose shard closures may still be queued (abandoned
// operations on a closing server leak their plan instead).
func (p *txnPlan) release(srv *Server) {
	for _, sid := range p.shards {
		p.reads[sid] = p.reads[sid][:0]
		p.writes[sid] = nil // escaped into prepared sets / replication log
		p.lockReq[sid] = p.lockReq[sid][:0]
	}
	p.shards = p.shards[:0]
	clear(p.written)
	clear(p.seenRead)
	// Drain channel residue from paths that stop reading early: wounds
	// that raced the last grants, sibling prepares behind a failed one.
	for len(p.notify) > 0 {
		<-p.notify
	}
	for len(p.prepCh) > 0 {
		<-p.prepCh
	}
	for len(p.applyCh) > 0 {
		<-p.applyCh
	}
	for len(p.abortCh) > 0 {
		<-p.abortCh
	}
	p.trace.Reset()
	srv.txnPool.Put(p)
}

// plan dedupes the read and write sets and groups them by shard. A key in
// both sets is locked exclusively; duplicate writes keep the last value.
func (srv *Server) plan(txn locks.TxnID, readKeys []string, writeKVs []wire.KV) *txnPlan {
	p := srv.txnPool.Get().(*txnPlan)
	prio := int64(txn.Seq)
	touch := func(sid int) {
		if len(p.reads[sid]) == 0 && len(p.writes[sid]) == 0 && len(p.lockReq[sid]) == 0 {
			p.shards = append(p.shards, sid)
		}
	}
	for _, kv := range writeKVs {
		sid := srv.shardFor(kv.Key).id
		if i, dup := p.written[kv.Key]; dup {
			p.writes[sid][i].Value = kv.Value
			continue
		}
		touch(sid)
		p.written[kv.Key] = len(p.writes[sid])
		p.writes[sid] = append(p.writes[sid], kv)
		p.lockReq[sid] = append(p.lockReq[sid], locks.Request{
			Txn: txn, Key: kv.Key, Mode: locks.Exclusive, Prio: prio,
		})
	}
	for _, k := range readKeys {
		if p.seenRead[k] {
			continue
		}
		p.seenRead[k] = true
		sid := srv.shardFor(k).id
		touch(sid)
		p.reads[sid] = append(p.reads[sid], k)
		if _, w := p.written[k]; !w {
			p.lockReq[sid] = append(p.lockReq[sid], locks.Request{
				Txn: txn, Key: k, Mode: locks.Shared, Prio: prio,
			})
		}
	}
	sort.Ints(p.shards)
	return p
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
		err := srv.abortTxn(txn, p)
		if err == errAborted {
			p.release(srv)
		}
		return err
	}

	// Lock phase. notify is buffered for one grant plus one wound per
	// shard so lock-table callbacks never block an apply loop.
	notify := p.notify
	for _, sid := range p.shards {
		s, reqs := srv.shards[sid], p.lockReq[sid]
		s.run(func() {
			w := &waiter{notify: notify, shard: s.id}
			for _, lr := range reqs {
				if s.lm.Acquire(lr) == locks.Waiting {
					w.need++
				}
			}
			s.waiters[txn] = w // registered even if fully granted, for wound delivery
			if w.need == 0 {
				notify <- shardEvent{shard: s.id}
			}
			s.lm.Flush()
		})
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
	prepCh := p.prepCh
	for _, sid := range p.shards {
		s, wkvs := srv.shards[sid], p.writes[sid]
		s.run(func() {
			if s.lm.Wounded(txn) {
				prepCh <- prepResult{}
				return
			}
			s.lm.SetPrepared(txn)
			tp := s.nextTS()
			if len(wkvs) > 0 {
				s.prepared[txnID] = &prepEntry{tp: tp, tee: tee, writes: wkvs}
				// The record carries the write set (unlike the replication
				// entry) so recovery can rebuild the prepared entry and its
				// exclusive lock footprint.
				s.walAppend(wal.KindPrepare, txnID, tp, tee, wkvs)
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
			prepCh <- prepResult{ok: true, tp: tp}
		})
	}
	var tc truetime.Timestamp
	for range p.shards {
		select {
		case pr := <-prepCh:
			if !pr.ok {
				// Undrained sibling prepares may still run, but they only
				// reference the write slices, which release never recycles
				// — so aborting (and pooling the rest) here is safe.
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
	applyCh := p.applyCh
	for _, sid := range p.shards {
		s, rks, wkvs := srv.shards[sid], p.reads[sid], p.writes[sid]
		s.run(func() {
			res := applyResult{kvs: make([]wire.KV, 0, len(rks))}
			for _, k := range rks {
				v := s.store.Latest(k)
				res.kvs = append(res.kvs, wire.KV{Key: k, Value: v.Value})
				res.vers = append(res.vers, int64(v.TS))
			}
			for _, kv := range wkvs {
				s.store.Write(kv.Key, kv.Value, tc)
			}
			if tc > s.maxTS {
				s.maxTS = tc
			}
			if s.prepared[txnID] != nil {
				// Commit record first, then resolve: the flush that releases
				// the outcome to watchers then covers the record.
				s.walAppend(wal.KindCommit, txnID, tc, 0, wkvs)
				s.resolvePrepared(txnID, true, tc)
				s.replicate(replication.EntryCommit, txnID, tc, wkvs)
			}
			// Even a read-only participant joins: its reads may have
			// observed records still in the current batch.
			s.expose(exposure{join: &p.join})
			delete(s.waiters, txn)
			s.lm.ReleaseAll(txn)
			s.lm.Flush()
			applyCh <- res
		})
	}
	byKey := map[string]string{}
	verByKey := map[string]int64{}
	for range p.shards {
		select {
		case res := <-applyCh:
			for i, kv := range res.kvs {
				byKey[kv.Key] = kv.Value
				verByKey[kv.Key] = res.vers[i]
			}
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

	// Return read results in request order (dedup preserved the first
	// occurrence of each key). Every shard closure has completed (applyCh
	// drained), so the plan can be recycled.
	emitted := map[string]bool{}
	for _, k := range readKeys {
		if emitted[k] {
			continue
		}
		emitted[k] = true
		reads = append(reads, wire.KV{Key: k, Value: byKey[k]})
		readVers = append(readVers, verByKey[k])
	}
	p.release(srv)
	return reads, readVers, int64(tc), nil
}

// abortTxn releases the transaction's locks and queued requests on every
// involved shard, resolves any prepared entries as aborted (waking
// snapshot reads that were blocked on them), waits for the releases to
// land, and reports errAborted. ReleaseAll clears the wounded mark, so a
// retry under the same ID (and thus the same wound-wait priority) starts
// clean but keeps its age.
func (srv *Server) abortTxn(txn locks.TxnID, p *txnPlan) error {
	done := p.abortCh
	for _, sid := range p.shards {
		s := srv.shards[sid]
		s.run(func() {
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
			done <- struct{}{}
		})
	}
	for range p.shards {
		select {
		case <-done:
		case <-srv.quit:
			return errClosed
		}
	}
	srv.stats.Aborts.Add(1)
	return errAborted
}
