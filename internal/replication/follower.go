package replication

import (
	"sync/atomic"
	"time"

	"rsskv/internal/mvstore"
	"rsskv/internal/truetime"
)

// Transport depths. A push (channel) follower more than entryBuffer
// batches behind is detached instead of blocking the leader (its reads
// fail over), which is the asynchronous-backup liveness contract; pull
// followers use the same depth between their puller and apply loop. The
// buffer counts batches, not entries — the leader appends one batch per
// shard apply drain, so depth tracks how many flushes behind the
// follower is, which is the quantity the detach decision cares about.
const (
	entryBuffer = 4096
	readBuffer  = 256
)

// readRequest is one snapshot read submitted to a replica; reply is
// buffered so the apply loop never blocks delivering it, even to a caller
// that timed out and left.
type readRequest struct {
	tread truetime.Timestamp
	keys  []string
	reply chan readReply
}

type readReply struct {
	vals []Val
	ok   bool
	// belowFloor marks a refusal: the read arrived below the replica's read
	// floor (see serve).
	belowFloor bool
}

// replica is the follower state machine shared by every transport: a
// single goroutine draining a log channel in order into a private
// multi-version store and serving snapshot reads at or below the applied
// watermark — the same one-goroutine-owns-the-state discipline the shards
// use. ChanTransport embeds one in the leader's process; a Node (see
// catchup.go) runs one per shard in its own process, fed by a wire puller.
type replica struct {
	id    int
	shard int
	ch    chan []Entry
	ctrl  chan func() // loop-run control closures (snapshot install)
	reads chan readRequest
	chaos Chaos

	// Loop-owned state. applied (the watermark of the last applied entry,
	// the replica's actual t_safe) and appliedSeq are written only by the
	// loop but read by accessors, so they are atomics.
	store      *mvstore.Store
	applied    atomic.Int64
	appliedSeq atomic.Uint64
	parked     []readRequest // reads waiting for applied ≥ tread
	// floor is the newest Entry.Floor applied, which the store has been
	// advanced to: the leader's word that no read it still waits for
	// executes below it.
	floor truetime.Timestamp

	// acked is the watermark this replica has acknowledged toward the
	// leader — its advertised t_safe. It trails applied by one ack hop
	// (or leads it, deliberately, under Chaos.DelayedApplies).
	acked    atomic.Int64
	ackedSeq atomic.Uint64
	// dropAcks freezes acked while applies continue: the "leader lost the
	// backup's ack path" failure, replica-side flavor. The replica stays
	// correct but stops advertising progress.
	dropAcks atomic.Bool
	// alive is cleared by Kill; a dead replica serves nothing.
	alive atomic.Bool
	// onAck, if set, forwards acknowledgments off-process (the Node's
	// OpReplAck sender) or wakes the leader's synchronous-replication
	// waiters (ChanTransport). Called from the loop, after the atomics
	// update; it must not block.
	onAck func(seq uint64, w truetime.Timestamp)

	// epochFloor is the fence: entries stamped with a lower (nonzero)
	// epoch are dropped instead of applied. Raised by promotion (the
	// replica joins a newer view) and automatically when a higher epoch
	// appears in the log.
	epochFloor atomic.Uint64
	// fencedDrops counts entries refused by the epoch floor — the
	// observable half of fencing, scraped into metrics.
	fencedDrops atomic.Uint64
}

func newReplica(id, shard int, chaos Chaos) *replica {
	r := &replica{
		id:    id,
		shard: shard,
		ch:    make(chan []Entry, entryBuffer),
		ctrl:  make(chan func(), 1),
		reads: make(chan readRequest, readBuffer),
		store: mvstore.New(),
		chaos: chaos,
	}
	r.alive.Store(true)
	return r
}

func (r *replica) loop() {
	if r.chaos.DelayedApplies {
		r.chaosLoop()
		return
	}
	for {
		select {
		case es, ok := <-r.ch:
			if !ok {
				r.drainParked()
				return
			}
			if !r.alive.Load() {
				continue // killed: drain without applying
			}
			// Apply the whole batch, then acknowledge once at its tail —
			// the follower-side half of the batching amortization. Seq and
			// watermark both grow along the batch (heartbeats carry Seq 0,
			// non-tail batch entries watermark 0), so the maxima are the
			// tail's view and ack() clamps monotone anyway.
			var maxSeq uint64
			var maxWM truetime.Timestamp
			for _, e := range es {
				r.apply(e)
				if e.Seq > maxSeq {
					maxSeq = e.Seq
				}
				if e.Watermark > maxWM {
					maxWM = e.Watermark
				}
			}
			r.ack(maxSeq, maxWM)
			r.wake()
		case fn := <-r.ctrl:
			fn()
		case req := <-r.reads:
			r.serveOrPark(req)
		}
	}
}

// chaosLoop is the delayed-applies fault: every entry's watermark is
// acknowledged the moment it arrives, but its apply sits in a queue for
// ApplyDelay first — an asynchronous apply pipeline whose advertised
// t_safe is a lie. Reads are served from the stale store throughout
// (serveOrPark never parks under this chaos), so routed snapshot reads
// miss every commit still sitting in the queue.
func (r *replica) chaosLoop() {
	type delayed struct {
		e   Entry
		due time.Time
	}
	var pending []delayed
	for {
		var dueC <-chan time.Time
		if len(pending) > 0 {
			if wait := time.Until(pending[0].due); wait > 0 {
				dueC = time.After(wait)
			} else {
				r.apply(pending[0].e)
				pending = pending[1:]
				continue
			}
		}
		select {
		case es, ok := <-r.ch:
			if !ok {
				r.drainParked()
				return
			}
			if !r.alive.Load() {
				continue
			}
			// The lie: the whole batch is acknowledged on arrival, applied
			// only after ApplyDelay.
			var maxSeq uint64
			var maxWM truetime.Timestamp
			for _, e := range es {
				if e.Seq > maxSeq {
					maxSeq = e.Seq
				}
				if e.Watermark > maxWM {
					maxWM = e.Watermark
				}
			}
			r.ack(maxSeq, maxWM)
			due := time.Now().Add(r.chaos.ApplyDelay)
			for _, e := range es {
				pending = append(pending, delayed{e: e, due: due})
			}
		case <-dueC:
			r.apply(pending[0].e)
			pending = pending[1:]
		case fn := <-r.ctrl:
			fn()
		case req := <-r.reads:
			r.serveOrPark(req) // chaos serves immediately, stale
		}
	}
}

func (r *replica) drainParked() {
	for _, req := range r.parked {
		req.reply <- readReply{}
	}
	r.parked = nil
}

// apply installs one entry. Entries arrive in log order; the watermark and
// the read floor are clamped monotone anyway so a replayed prefix can
// regress neither. Entries stamped with an epoch below the fence floor are
// dropped whole — neither their writes nor their watermark and floor claims
// are trusted, because they come from a leader deposed out of the view this
// replica serves.
func (r *replica) apply(e Entry) {
	if e.Epoch != 0 {
		if floor := r.epochFloor.Load(); e.Epoch < floor {
			r.fencedDrops.Add(1)
			return
		}
		r.raiseEpochFloor(e.Epoch)
	}
	if e.Floor > r.floor {
		// Before the writes, so they trim to it: the floor says which reads
		// are still wanted, not which commits have arrived, and holds from
		// the moment the leader computed it.
		r.floor = e.Floor
		r.store.Advance(e.Floor)
	}
	if e.Kind == EntryCommit {
		for _, kv := range e.Writes {
			r.store.Write(kv.Key, kv.Value, e.TS)
		}
	}
	if int64(e.Watermark) > r.applied.Load() {
		r.applied.Store(int64(e.Watermark))
	}
	if e.Seq > r.appliedSeq.Load() {
		r.appliedSeq.Store(e.Seq)
	}
}

// install replaces the replica's state with a snapshot: every version in
// vals, reflecting the log through position seq with safe-time watermark
// w. Runs on the apply loop (catch-up after truncation); the caller's
// puller resumes feeding entries after seq. Blocks until installed.
func (r *replica) install(vals []Val, seq uint64, w truetime.Timestamp) {
	done := make(chan struct{})
	r.ctrl <- func() {
		st := mvstore.New()
		for _, v := range vals {
			st.Write(v.Key, v.Value, v.TS)
		}
		st.Advance(r.floor) // the replica's floor outlives the store it replaces
		r.store = st
		if int64(w) > r.applied.Load() {
			r.applied.Store(int64(w))
		}
		r.appliedSeq.Store(seq)
		r.ack(seq, w)
		r.wake()
		close(done)
	}
	<-done
}

// wake serves parked reads the advancing watermark now covers. Loop-only.
func (r *replica) wake() {
	if len(r.parked) == 0 {
		return
	}
	kept := r.parked[:0]
	for _, req := range r.parked {
		if int64(req.tread) <= r.applied.Load() {
			r.serve(req)
		} else {
			kept = append(kept, req)
		}
	}
	r.parked = kept
}

// serveOrPark serves a read whose t_read the applied watermark covers, or
// parks it until the watermark catches up (the Spanner replica-wait rule).
// Under the delayed-applies chaos every read is served immediately — that
// broken discipline is the fault under test. Loop-only.
func (r *replica) serveOrPark(req readRequest) {
	if !r.alive.Load() {
		req.reply <- readReply{}
		return
	}
	if int64(req.tread) <= r.applied.Load() || r.chaos.DelayedApplies {
		r.serve(req)
		return
	}
	r.parked = append(r.parked, req)
}

func (r *replica) serve(req readRequest) {
	if req.tread < r.floor {
		// The leader registers every read before routing it and ships only
		// floors at or below the oldest one in flight, so a read it still
		// waits for never arrives below the floor; one it has given up on
		// may. Either way the read is refused, not served from a store that
		// may have dropped its version, and the caller — if there still is
		// one — is told why, falls back to the leader's store, and counts it.
		req.reply <- readReply{belowFloor: true}
		return
	}
	vals := make([]Val, 0, len(req.keys))
	for _, k := range req.keys {
		v := r.store.ReadAt(k, req.tread)
		vals = append(vals, Val{Key: k, Value: v.Value, TS: v.TS})
	}
	req.reply <- readReply{vals: vals, ok: true}
}

func (r *replica) ack(seq uint64, w truetime.Timestamp) {
	if r.dropAcks.Load() {
		return
	}
	for {
		cur := r.acked.Load()
		if int64(w) <= cur || r.acked.CompareAndSwap(cur, int64(w)) {
			break
		}
	}
	for {
		cur := r.ackedSeq.Load()
		if seq <= cur || r.ackedSeq.CompareAndSwap(cur, seq) {
			break
		}
	}
	if r.onAck != nil {
		r.onAck(seq, w)
	}
}

// raiseEpochFloor lifts the fence floor monotonically: once the replica
// has seen epoch e, entries from any lower epoch are refused forever.
func (r *replica) raiseEpochFloor(e uint64) {
	for {
		cur := r.epochFloor.Load()
		if e <= cur || r.epochFloor.CompareAndSwap(cur, e) {
			return
		}
	}
}

// extract hands the replica's state to a promotion: the multi-version
// store, the last applied log position, and the applied safe-time
// watermark, captured atomically on the apply loop so no entry is half
// reflected. With copyStore the store is deep-copied (the replica keeps
// serving its own — the fencing-disabled chaos twin needs the deposed
// feed and the promoted server to diverge without sharing memory);
// otherwise ownership transfers and the caller must have stopped the
// replica's feed first.
func (r *replica) extract(copyStore bool) (st *mvstore.Store, seq uint64, wm truetime.Timestamp) {
	done := make(chan struct{})
	r.ctrl <- func() {
		if copyStore {
			st = mvstore.New()
			r.store.Dump(func(key string, v mvstore.Version) {
				st.Write(key, v.Value, v.TS)
			})
		} else {
			st = r.store
		}
		seq = r.appliedSeq.Load()
		wm = truetime.Timestamp(r.applied.Load())
		close(done)
	}
	<-done
	return st, seq, wm
}

// Read serves a snapshot read at tread from the replica, waiting up to
// timeout for its t_safe to cover tread. A replica never serves a read
// above its own applied watermark (the property the delayed-applies chaos
// deliberately breaks): everything at or below it is fully applied, so no
// lock table, prepared set, or blocking rule is consulted. abandoned is
// true when the request was handed over but no reply arrived in time: the
// replica may still be holding keys, so the caller must not reuse that
// slice's backing array. belowFloor is true when the replica refused the
// read, within the timeout, because it arrived below its read floor.
func (r *replica) Read(tread truetime.Timestamp, keys []string, timeout time.Duration) (vals []Val, ok, abandoned, belowFloor bool) {
	if !r.alive.Load() {
		return nil, false, false, false
	}
	req := readRequest{tread: tread, keys: keys, reply: make(chan readReply, 1)}
	select {
	case r.reads <- req:
	default:
		return nil, false, false, false // read queue full (or loop gone): refuse
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case rep := <-req.reply:
		return rep.vals, rep.ok, false, rep.belowFloor
	case <-timer.C:
		return nil, false, true, false // the late reply lands in the buffered channel
	}
}

// TSafe returns the watermark the replica has actually applied through —
// its real t_safe.
func (r *replica) TSafe() truetime.Timestamp {
	return truetime.Timestamp(r.applied.Load())
}

// ChanTransport is the in-process transport: the replica lives in the
// leader's process behind a buffered channel, and acknowledgments are
// atomics the router reads directly. One ChanTransport per follower of a
// -replicas=N shard group.
type ChanTransport struct {
	r *replica
	// belowFloor is the count, owned by the group the transport is attached
	// to (set by Attach), of reads the replica refused while the leader
	// still waited for them, for arriving below its read floor.
	belowFloor *atomic.Int64
	// detached is set once the leader stops replicating to this follower
	// (transport overflow or group close); the entry channel is closed at
	// most once under it.
	detached atomic.Bool
}

func newChanTransport(id, shard int, chaos Chaos, notify func()) *ChanTransport {
	t := &ChanTransport{r: newReplica(id, shard, chaos)}
	if notify != nil {
		t.r.onAck = func(uint64, truetime.Timestamp) { notify() }
	}
	go t.r.loop()
	return t
}

// Offer hands a batch to the replica without blocking; on overflow the
// follower is detached permanently (its log would have a gap, so it must
// never apply a later entry). The batch slice is shared with the other
// transports and treated as read-only.
func (t *ChanTransport) Offer(es []Entry) {
	if t.detached.Load() {
		return
	}
	select {
	case t.r.ch <- es:
	default:
		if !t.detached.Swap(true) {
			close(t.r.ch)
		}
	}
}

// Pull reports that entries are pushed, not pulled.
func (t *ChanTransport) Pull() bool { return false }

// Read serves a snapshot read at the in-process replica.
func (t *ChanTransport) Read(tread truetime.Timestamp, keys []string, timeout time.Duration) ([]Val, bool, bool) {
	vals, ok, abandoned, belowFloor := t.r.Read(tread, keys, timeout)
	if belowFloor {
		t.belowFloor.Add(1)
	}
	return vals, ok, abandoned
}

// Acked returns the replica's advertised t_safe (what the router sees).
func (t *ChanTransport) Acked() truetime.Timestamp {
	return truetime.Timestamp(t.r.acked.Load())
}

// AckedSeq returns the last acknowledged log position.
func (t *ChanTransport) AckedSeq() uint64 { return t.r.ackedSeq.Load() }

// TSafe returns the replica's applied watermark — its real t_safe, which
// trails Acked by one atomic store (or follows it, under chaos).
func (t *ChanTransport) TSafe() truetime.Timestamp { return t.r.TSafe() }

// Routable reports whether the replica may be offered reads.
func (t *ChanTransport) Routable() bool { return t.r.alive.Load() && !t.detached.Load() }

// Alive reports whether the replica is serving.
func (t *ChanTransport) Alive() bool { return t.r.alive.Load() }

// Kill simulates the node dying: the replica stops applying and serving.
// Reads parked on it at that instant burn their timeout and fail over; new
// reads fail over immediately.
func (t *ChanTransport) Kill() { t.r.alive.Store(false) }

// DropAcks severs the follower→leader acknowledgment path while the
// replica keeps applying: its advertised t_safe freezes, so the router
// stops picking it for fresh reads and the leader serves them instead.
func (t *ChanTransport) DropAcks() { t.r.dropAcks.Store(true) }

// Kind names the transport flavor.
func (t *ChanTransport) Kind() string { return "chan" }

// Close detaches the follower and stops its loop. The caller must
// guarantee no concurrent Offer.
func (t *ChanTransport) Close() {
	if !t.detached.Swap(true) {
		close(t.r.ch)
	}
}
