package server

import (
	"sync"
	"sync/atomic"
	"time"

	"rsskv/internal/wire"
)

// This file is the serving layer's admission control: a per-shard gate in
// front of every RW transaction, snapshot read, and single-key operation
// that classifies each arrival as admit / delay / reject before the
// request touches any shard state. The paper never pushes its systems past
// saturation (§7 stops at the knee); past it, an ungated server degrades
// by queueing — apply channels fill, every response waits behind an
// ever-growing backlog, and p99 collapses while achieved throughput sags.
// The gate sheds that load instead, and it does so *before* the request
// acquires locks, appends to the WAL, or reaches the replication log, so
// a rejected operation leaves zero footprint and the recorded history
// stays RSS: a reject is just an operation that never happened.
//
// Mechanics, per shard:
//
//   - a token bucket drained by admissions and refilled two ways: at the
//     configured baseline rate (Config.AdmitQPS split over shards — the
//     operator's budget) and by completed operations (each admitted
//     operation refunds a fraction of its token when it finishes), so the
//     admitted rate tracks what the shard actually finishes rather than a
//     static guess. The refund is strictly less than the charge, so the
//     steady-state admitted rate is a bounded multiple of the baseline —
//     rate/(1−refill) — never an unbounded amplifier;
//   - stall thresholds on the live overload signals: when the shard's
//     apply-queue depth (the apply.queue_depth signal) crosses
//     admitStallDepth, or the WAL group-commit fsync duration (the
//     wal.fsync signal, tracked as an EWMA by flush and aged by the time
//     since its last sample) crosses admitStallFsync, the gate stops
//     granting even with tokens in hand — tokens model average capacity,
//     the stall signals model "right now";
//   - a bounded FIFO delay queue (Config.AdmitQueue) with a deadline
//     (Config.AdmitDeadline): an arrival that cannot be granted parks and
//     is woken in order as tokens return or the stall clears; the queue
//     overflowing or the deadline expiring is a rejection, answered with
//     the Overloaded wire flag and a retry-after hint sized to the gate's
//     current deficit.
//
// Multi-key operations are charged to their bottleneck shard — the
// involved shard with the deepest apply queue — one token per operation,
// so a hot shard throttles exactly the traffic that lands on it without
// taxing every other shard's gate.

const (
	// admitStallDepth is the apply-queue depth at which a gate stalls:
	// 3/4 of the apply channel's capacity (256). Past it the shard is not
	// keeping up with what was already admitted, so granting more only
	// lengthens every queued operation's wait.
	admitStallDepth = 192
	// admitStallFsync is the group-commit fsync EWMA past which a durable
	// shard is considered under fsync pressure: batches this slow mean
	// every acknowledged op is already paying tens of milliseconds of
	// durability wait, and more admissions just widen the batches.
	admitStallFsync = 20 * time.Millisecond
	// admitFsyncAlpha is the EWMA weight (1/8) for new fsync samples.
	admitFsyncAlpha = 8
	// admitRetryCap bounds the retry-after hint: past it the hint stops
	// carrying information (the client's own capped backoff takes over).
	admitRetryCap = 100 * time.Millisecond
	// admitCompletionRefill is the fraction of its token a completed
	// operation refunds. It must stay strictly below 1: each admission
	// charges one token, so refunding r per completion pins the
	// steady-state admitted rate at baseline/(1−r) — 4/3 of the budget at
	// 1/4 — while refunding one or more would repay every admission with
	// interest and the bucket would never limit. (Refunding per drained
	// apply *closure* has exactly that bug: a transaction runs several
	// closures per involved shard, so any per-closure fraction times the
	// real closures-per-op can exceed 1 and the budget stops binding.)
	admitCompletionRefill = 0.25
)

// overloadError is the admission rejection surfaced through runTxn; the
// wire layer renders it as an Overloaded response with the retry hint.
type overloadError struct {
	retryAfterUS int64
}

func (e *overloadError) Error() string { return wire.ErrMsgOverloaded }

// admitWaiter is one parked arrival in a gate's delay queue.
type admitWaiter struct {
	granted bool          // set under the gate's mutex before ch closes
	ch      chan struct{} // closed on grant
}

// admitGate is one shard's admission gate. All mutable state is behind mu
// except the fsync EWMA, which the shard loop writes lock-free.
type admitGate struct {
	s *shard

	rate  float64 // baseline refill, tokens/second
	burst float64 // bucket capacity

	fsyncEWMA atomic.Int64 // smoothed group-commit fsync duration, ns
	fsyncAt   atomic.Int64 // when its last sample was folded in, unix ns

	mu     sync.Mutex
	tokens float64
	last   time.Time      // previous refill instant
	queue  []*admitWaiter // parked arrivals, FIFO
}

func newAdmitGate(s *shard) *admitGate {
	cfg := &s.srv.cfg
	rate := cfg.AdmitQPS / float64(cfg.Shards)
	// Burst absorbs ~20ms of arrivals at the baseline rate, floored so
	// tiny per-shard rates still admit small pipelined bursts instantly.
	burst := rate / 50
	if burst < 16 {
		burst = 16
	}
	return &admitGate{
		s:      s,
		rate:   rate,
		burst:  burst,
		tokens: burst,
		last:   time.Now(),
	}
}

// stalled reports whether the shard's live overload signals forbid
// admission regardless of tokens. Lock-free reads of loop-owned signals:
// channel length and the fsync EWMA.
func (g *admitGate) stalled() bool {
	if len(g.s.ch) >= admitStallDepth {
		return true
	}
	return g.fsyncPressure(time.Now()) >= admitStallFsync
}

// fsyncPressure is the fsync EWMA aged by silence: it halves for every
// admitStallFsync that has passed since its last sample. The EWMA itself
// only moves when the shard syncs a write, so a gate that believed it
// forever would latch shut: one slow fsync parks every writer, no write
// reaches the shard, and nothing is left to bring the average down. An old
// sample says little about now; letting it fade reopens the gate, and the
// next fsync says whether the disk is still slow.
func (g *admitGate) fsyncPressure(now time.Time) time.Duration {
	halvings := (now.UnixNano() - g.fsyncAt.Load()) / int64(admitStallFsync)
	if halvings < 0 {
		halvings = 0 // a sample stamped after now was read
	}
	return time.Duration(g.fsyncEWMA.Load() >> halvings)
}

// refill tops the bucket up for the time elapsed since the last refill.
// Caller holds mu.
func (g *admitGate) refill(now time.Time) {
	if d := now.Sub(g.last); d > 0 {
		g.tokens += d.Seconds() * g.rate
		if g.tokens > g.burst {
			g.tokens = g.burst
		}
	}
	g.last = now
}

// wake grants parked waiters in FIFO order while tokens and the stall
// signals allow. Caller holds mu.
func (g *admitGate) wake() {
	for len(g.queue) > 0 && g.tokens >= 1 && !g.stalled() {
		w := g.queue[0]
		g.queue[0] = nil
		g.queue = g.queue[1:]
		g.tokens--
		w.granted = true
		close(w.ch)
	}
}

// refund returns the completion fraction of one admitted operation's
// token and wakes parked waiters — the completion-driven refill: a shard
// that is finishing work proves it has capacity for more, a shard that is
// not starves the queue until it does. Called once per admitted operation
// when it completes (commit, abort, or error alike — the shard's capacity
// was spent either way).
func (g *admitGate) refund() {
	g.mu.Lock()
	g.tokens += admitCompletionRefill
	if g.tokens > g.burst {
		g.tokens = g.burst
	}
	g.wake()
	g.mu.Unlock()
}

// noteFsync folds one group-commit fsync duration into the pressure EWMA.
// Called by flush on the shard loop; lock-free.
func (g *admitGate) noteFsync(d time.Duration) {
	now := time.Now()
	old := int64(g.fsyncPressure(now))
	g.fsyncEWMA.Store(old + (int64(d)-old)/admitFsyncAlpha)
	g.fsyncAt.Store(now.UnixNano())
}

// retryAfter estimates when the gate expects capacity for one more
// arrival: the token deficit (including everything already queued ahead)
// at the baseline rate, capped so the hint stays meaningful.
// Caller holds mu.
func (g *admitGate) retryAfter() time.Duration {
	deficit := 1 + float64(len(g.queue)) - g.tokens
	if deficit < 1 {
		deficit = 1
	}
	d := time.Duration(deficit / g.rate * float64(time.Second))
	if d > admitRetryCap {
		d = admitRetryCap
	}
	return d
}

// tryAdmit is the non-blocking classification used on paths that must not
// park (the connection read loop): granted, rejected (with the retry
// hint), or wouldDelay — the caller should move to its own goroutine and
// call admit.
func (g *admitGate) tryAdmit() (granted, wouldDelay bool, retryUS int64) {
	now := time.Now()
	g.mu.Lock()
	g.refill(now)
	// Grant queued waiters first: under overload, arrivals are the clock
	// that moves baseline-refill tokens to the FIFO queue (completions
	// are the other waker). An arrival admits instantly only when no one
	// is parked ahead of it.
	g.wake()
	if len(g.queue) == 0 && g.tokens >= 1 && !g.stalled() {
		g.tokens--
		g.mu.Unlock()
		return true, false, 0
	}
	if len(g.queue) >= g.s.srv.cfg.AdmitQueue {
		hint := g.retryAfter()
		g.mu.Unlock()
		g.s.srv.noteReject()
		return false, false, int64(hint / time.Microsecond)
	}
	g.mu.Unlock()
	return false, true, 0
}

// admit is the full admission protocol: grant immediately when the bucket
// and the stall signals allow, otherwise park in the delay queue until a
// token arrives (completion or baseline refill) or the deadline expires.
// It reports whether the operation may proceed; on false the caller must
// answer Overloaded with the returned retry-after hint (µs) and touch no
// shard state. Blocks up to Config.AdmitDeadline — call it from a
// coordinator goroutine, never from a shard loop or a connection read
// loop.
func (g *admitGate) admit() (ok bool, retryUS int64) {
	srv := g.s.srv
	now := time.Now()
	g.mu.Lock()
	g.refill(now)
	g.wake() // queued waiters take refilled tokens before this arrival
	if len(g.queue) == 0 && g.tokens >= 1 && !g.stalled() {
		g.tokens--
		g.mu.Unlock()
		return true, 0
	}
	if len(g.queue) >= srv.cfg.AdmitQueue {
		hint := g.retryAfter()
		g.mu.Unlock()
		srv.noteReject()
		return false, int64(hint / time.Microsecond)
	}
	w := &admitWaiter{ch: make(chan struct{})}
	g.queue = append(g.queue, w)
	g.mu.Unlock()
	srv.stats.AdmitDelayed.Add(1)

	deadline := time.NewTimer(srv.cfg.AdmitDeadline)
	defer deadline.Stop()
	// Completions and arrivals are what normally run wake, but a stall
	// signal fades with time alone (fsyncPressure), and then there may be
	// neither: every writer is parked right here. So a parked arrival also
	// looks for itself, once per halving of the signal.
	recheck := time.NewTicker(admitStallFsync)
	defer recheck.Stop()
parked:
	for {
		select {
		case <-w.ch:
			srv.metrics.admitWait.ObserveSince(now)
			return true, 0
		case <-recheck.C:
			g.mu.Lock()
			g.refill(time.Now())
			g.wake()
			g.mu.Unlock()
		case <-deadline.C:
			break parked
		}
	}
	// Deadline expired; a grant may have raced the timer. The granted
	// flag is settled under mu: either wake closed the channel first (the
	// token is ours) or we unlink ourselves before it can.
	g.mu.Lock()
	if w.granted {
		g.mu.Unlock()
		srv.metrics.admitWait.ObserveSince(now)
		return true, 0
	}
	for i, q := range g.queue {
		if q == w {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			break
		}
	}
	hint := g.retryAfter()
	g.mu.Unlock()
	srv.metrics.admitWait.ObserveSince(now)
	srv.noteReject()
	return false, int64(hint / time.Microsecond)
}

// tokens reports the bucket's current level for the admission.tokens
// gauge (refilled to now so an idle gate reads full, not stale).
func (g *admitGate) tokenLevel() int64 {
	now := time.Now()
	g.mu.Lock()
	g.refill(now)
	t := g.tokens
	g.mu.Unlock()
	return int64(t)
}

func (srv *Server) noteReject() { srv.stats.AdmitRejects.Add(1) }

// admitFor picks the gate a multi-key operation is charged to: the
// involved shard with the deepest apply queue — the bottleneck, read
// lock-free from the channel lengths. Nil when admission is disabled or
// the footprint is empty.
func (srv *Server) admitFor(readKeys []string, writeKVs []wire.KV, keys []string) *admitGate {
	if !srv.admitting {
		return nil
	}
	var best *shard
	depth := -1
	consider := func(k string) {
		s := srv.shardFor(k)
		if d := len(s.ch); d > depth {
			best, depth = s, d
		}
	}
	for _, k := range readKeys {
		consider(k)
	}
	for _, kv := range writeKVs {
		consider(kv.Key)
	}
	for _, k := range keys {
		consider(k)
	}
	if best == nil {
		return nil
	}
	return best.gate
}

// admitFast is the single-key (OpGet/OpPut) admission path, called on the
// connection's read loop, which must never block — a parked admit there
// would head-of-line-block every pipelined request behind it. It reports
// whether dispatch should proceed inline: true on an instant grant (or
// admission disabled), false when the operation was rejected (answered
// here) or handed to a goroutine that parks in the delay queue and then
// runs or rejects it.
func (srv *Server) admitFast(s *shard, req *wire.Request, cw *connWriter, pending *sync.WaitGroup) bool {
	g := s.gate
	if g == nil {
		return true
	}
	granted, wouldDelay, retryUS := g.tryAdmit()
	if granted {
		return true
	}
	if !wouldDelay {
		cw.Send(overloadResponse(req, retryUS))
		return false
	}
	pending.Add(1)
	go func() {
		ok, retryUS := g.admit()
		if !ok {
			cw.Send(overloadResponse(req, retryUS))
			pending.Done()
			return
		}
		done := s.admitDone(pending.Done)
		var fn func()
		if req.Op == wire.OpGet {
			fn = func() { s.get(req, cw, done) }
		} else {
			fn = func() { s.put(req, cw, done) }
		}
		if !s.run(fn) {
			pending.Done()
		}
	}()
	return false
}

// admitDone wraps a single-key operation's completion callback with the
// gate's token refund; a no-op passthrough when admission is off.
func (s *shard) admitDone(done func()) func() {
	g := s.gate
	if g == nil {
		return done
	}
	return func() {
		g.refund()
		done()
	}
}

// overloadResponse renders an admission rejection: a first-class wire
// outcome, not a generic error — OK false, the Overloaded flag, and the
// gate's retry-after hint.
func overloadResponse(req *wire.Request, retryUS int64) *wire.Response {
	return &wire.Response{
		ID: req.ID, Op: req.Op,
		Err: wire.ErrMsgOverloaded, Overloaded: true, RetryAfterUS: retryUS,
	}
}
