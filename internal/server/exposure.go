package server

import (
	"sync/atomic"
	"time"

	"rsskv/internal/truetime"
	"rsskv/internal/wire"
)

// The exposure gate. One rule covers every way state can leave a shard: a
// client response, a coordinator's permission to respond, or a prepared
// transaction's outcome handed to the snapshot reads that skipped it is
// released only after everything it could have observed is fsynced (when the
// shard has a log) and, under Config.SyncRepl, acknowledged by a live
// follower (when the shard has a replication group) — so no client ever
// witnesses state a crash or a failover can take back. This file is the only
// place that knows the rule: apply closures hand what they want released to
// expose, and flush, at the end of each loop drain, runs
//
//	wal.Sync → Group.AppendBatch → Group.WaitAcked → release(ok)
//
// skipping the steps the shard's configuration lacks. An undurable,
// unreplicated shard therefore releases at the end of the drain that applied
// the operation; nothing has a second path.

// exposure is one entry of a shard's release queue. Exactly one of its
// three kinds is set.
type exposure struct {
	// A client response (single-key get and put): sent once wait — the
	// commit timestamp, zero for reads — has definitely passed. done is
	// the connection handler's in-flight accounting and runs whether or
	// not the response is sent.
	cw   *connWriter
	resp *wire.Response
	wait truetime.Timestamp
	done func()
	// A transaction or snapshot-read coordinator's wake-up.
	join *exposureJoin
	// A resolved prepared transaction's outcome for the snapshot-read
	// coordinators that skipped it. Each channel is buffered for this one
	// send; a failed flush closes it instead, and the coordinator abandons
	// its response — the write it would fold may not exist in the next view.
	watchers []chan<- prepOutcome
	out      prepOutcome
}

// exposureJoin is the coordinator side of the gate: every shard closure
// that showed the coordinator some state queues one release of the join,
// and the coordinator waits for all of them before it answers the client.
// It lives in the coordinator's pooled scratch; wait leaves it zeroed.
type exposureJoin struct {
	n      atomic.Int32 // releases still owed (negative until wait adds its count)
	failed atomic.Bool
	ch     chan struct{} // buffered for the one send that brings n to zero
}

func (j *exposureJoin) release(ok bool) {
	if !ok {
		j.failed.Store(true)
	}
	if j.n.Add(-1) == 0 {
		j.ch <- struct{}{}
	}
}

// wait blocks until the n queued releases have run and reports whether
// every flush behind them succeeded. False means a crash ate a batch or a
// fence deposed this leader mid-wait: the response must never be sent.
// Every queued release does run — flush always ends in release — so the
// wait needs no shutdown escape, and the scratch may be pooled afterwards.
func (j *exposureJoin) wait(n int) bool {
	if n > 0 && j.n.Add(int32(n)) != 0 {
		<-j.ch
	}
	return !j.failed.Swap(false)
}

// expose queues e for release by the flush that ends the current loop
// drain. Loop-only.
func (s *shard) expose(e exposure) {
	s.exposed = append(s.exposed, e)
}

// flush makes the current apply batch durable, then replicated, then —
// under SyncRepl — follower-acknowledged, and only then releases what the
// batch exposed. The order matters twice over: followers are only ever
// offered entries whose records are already durable, so a crash can never
// leave a follower knowing a commit the recovered leader has lost; and the
// release comes last, so it vouches for all three. If the log crashed or
// was fenced the batch is dropped whole — nothing is replicated and the
// queue is released with ok=false. Loop-only.
func (s *shard) flush() {
	logged := s.wal != nil && s.wal.Pending() > 0
	if !logged && len(s.replBuf) == 0 && len(s.exposed) == 0 {
		return
	}
	// One watermark for both tails: the log's (recovery floor) and the
	// replication batch's (follower t_safe).
	var wm truetime.Timestamp
	if logged || len(s.replBuf) > 0 {
		wm = s.safeWatermark()
	}
	ok := true
	if s.wal != nil {
		// Group commit: at most one fsync per drain. Called even with
		// nothing pending, so a read-only batch on a crashed or fenced log
		// still fails.
		start := time.Now()
		n, err := s.wal.Sync(int64(wm))
		ok = err == nil
		if ok && n > 0 {
			s.srv.metrics.walFsync.ObserveSince(start)
			s.srv.metrics.walBatch.Observe(int64(n))
			s.walBytes += int64(n)
			if s.gate != nil {
				s.gate.noteFsync(time.Since(start))
			}
		}
	}
	if ok && len(s.replBuf) > 0 {
		// The watermark is stamped on the batch's TAIL entry only: by now
		// every commit of the batch is in the buffer at or before the tail
		// and the prepared set reflects every in-batch resolution, so the
		// tail honors the watermark contract — but an earlier entry must
		// not carry it, because a transaction that prepared and committed
		// within this same batch has a commit timestamp the flush-time
		// watermark may exceed, and a follower (or pull replica) holding
		// only a prefix ending at that earlier entry would then serve reads
		// it cannot cover. Non-tail entries carry watermark 0, which
		// followers' monotone clamp ignores. The read floor rides beside it:
		// the value this drain advanced the store to, which no read the
		// leader has routed or will route to a follower is below either
		// (readFloor), so the followers' stores may follow.
		last := &s.replBuf[len(s.replBuf)-1]
		last.Watermark, last.Floor = wm, s.floor
		// AppendBatch copies the entries and returns the batch's tail
		// sequence number (0 from a fenced group).
		if tail := s.repl.AppendBatch(s.replBuf); tail > s.replTail {
			s.replTail = tail
		}
		s.srv.metrics.replBatch.Observe(int64(len(s.replBuf)))
	}
	// Drop the write-set references so the reused buffer doesn't pin them.
	clear(s.replBuf)
	s.replBuf = s.replBuf[:0]
	if ok && s.srv.cfg.SyncRepl && s.replTail > 0 && len(s.exposed) > 0 {
		// The write a failover promotes a follower over must be on that
		// follower. The wait covers s.replTail, not just this batch's
		// appends: a read-only batch appends nothing but still exposes the
		// state the previous append produced. WaitAcked degrades to a no-op
		// with no live follower and fails only when this leader was fenced
		// mid-wait. It parks on srv.stopping, not srv.quit: quit closes only
		// after Close drains the coordinators, and a coordinator queued
		// behind this stalled apply loop would deadlock the drain.
		ok = s.repl.WaitAcked(s.replTail, s.srv.stopping)
	}
	s.release(ok)
	if ok {
		s.maybeCheckpoint()
	}
}

// release runs the queue. With ok=false nothing is sent — a dead or deposed
// process acknowledges nothing — but every waiter still hears back.
func (s *shard) release(ok bool) {
	for i := range s.exposed {
		e := &s.exposed[i]
		switch {
		case e.join != nil:
			e.join.release(ok)
		case e.watchers != nil:
			for _, ch := range e.watchers {
				if ok {
					ch <- e.out
				} else {
					close(ch)
				}
			}
		case !ok:
			e.done()
		case e.wait == 0 || s.srv.cfg.ChaosLostCommitWait || s.srv.clock.After(e.wait):
			// (Chaos: acknowledging before the commit timestamp has passed
			// is the mutation-side half of the lost-commit-wait fault.)
			e.cw.Send(e.resp)
			e.done()
		default:
			// Commit wait, off the loop so it never stalls the shard; it
			// overlapped the flush, so it has usually elapsed already.
			go func(e exposure) {
				defer e.done()
				s.srv.clock.WaitUntilAfter(e.wait)
				e.cw.Send(e.resp)
			}(*e)
		}
		*e = exposure{}
	}
	s.exposed = s.exposed[:0]
}
