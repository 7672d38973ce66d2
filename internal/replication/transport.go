// Live primary/backup log replication for the serving layer
// (internal/server and the queue service), as opposed to the
// simulator-facing Leader/Acceptor in replication.go. Each server shard is
// the primary of one Group: every prepare, commit, and abort it applies is
// appended to a per-shard replicated log, and follower replicas apply the
// entries in order into their own multi-version stores.
//
// The piece that makes follower reads safe is the watermark every entry
// carries: the leader's safe time at append — a timestamp w such that every
// commit at or below w precedes the entry in the log and no future commit
// will land at or below w. Once a follower has applied a prefix of the log
// ending in watermark w, it holds every committed write with commit
// timestamp ≤ w, so it may serve a snapshot read at any t_read ≤ w without
// consulting the leader, a lock table, a prepared set, or the §5 blocking
// rule — all of those are subsumed by the watermark.
//
// The leader↔follower surface is the Transport interface below, so where a
// replica lives is a deployment decision, not a protocol one:
//
//   - ChanTransport (follower.go) keeps the replica in the leader's
//     process behind a buffered channel — the PR 3 topology, still the
//     default for -replicas=N.
//   - SockTransport (this file) fronts a replica in another process (a
//     Node, catchup.go): the follower pulls log entries and snapshots over
//     the wire protocol (OpReplEntry, OpReplSnapshot), pushes apply
//     acknowledgments on its own messages (OpReplAck), and serves reads on
//     a dial-back connection (OpReplRead).
//
// Either way the protocol is asynchronous by design — the leader never
// blocks on a follower, so a dead or slow backup degrades reads to
// leader-served rather than stalling writes. Followers acknowledge applied
// watermarks (through an atomic in-process, through OpReplAck across
// processes); a follower whose acks stop (killed, overflowed, partitioned,
// or chaos-injected) simply stops attracting new reads. The chaos hooks
// (Kill, DropAcks) live on the interface, so the same failure matrix runs
// against both transports.
package replication

import (
	"sync/atomic"
	"time"

	"rsskv/internal/netio"
	"rsskv/internal/truetime"
	"rsskv/internal/wire"
)

// EntryKind classifies replicated log records.
type EntryKind uint8

const (
	// EntryPrepare records a transaction entering the leader's prepared
	// set. Followers apply no data for it; its watermark keeps t_safe
	// advancing between commits.
	EntryPrepare EntryKind = iota + 1
	// EntryCommit records a commit: Writes are installed at TS.
	EntryCommit
	// EntryAbort records an aborted preparer leaving the prepared set.
	EntryAbort
	// EntryHeartbeat carries only a watermark, so an idle shard's
	// followers keep a fresh t_safe and can serve newly-drawn read
	// timestamps.
	EntryHeartbeat
)

// Entry is one replicated log record.
type Entry struct {
	// Seq is the entry's position in the shard log, assigned by the
	// leader; followers apply strictly in Seq order.
	Seq uint64
	// Kind selects prepare, commit, abort, or heartbeat.
	Kind EntryKind
	// TxnID identifies the transaction (0 for one-shot single-key puts
	// and heartbeats).
	TxnID uint64
	// TS is the prepare timestamp of an EntryPrepare or the commit
	// timestamp of an EntryCommit.
	TS truetime.Timestamp
	// Watermark is the leader's safe time at append: every committed
	// write with commit timestamp ≤ Watermark is in the log at or before
	// this entry, and no future commit lands at or below it. A follower
	// that has applied through this entry may serve snapshot reads at any
	// t_read ≤ Watermark.
	Watermark truetime.Timestamp
	// Floor is the leader's read floor at append: no snapshot read the
	// leader will use executes below it, here or at a follower (the leader
	// registers a read before routing it anywhere). A follower advances its
	// store to it on apply and from then on keeps, of the versions at or
	// below it, only the newest per key (mvstore.Store.Advance). Like the
	// watermark it rides on a batch's tail entry, is zero elsewhere, and is
	// clamped monotone at the follower.
	Floor truetime.Timestamp
	// Epoch is the leader's view epoch at append (Group.SetEpoch). A
	// follower whose fence floor has moved past it drops the entry: this
	// is the replica half of epoch fencing — a deposed leader's late
	// appends cannot reach a follower that has joined a newer view.
	Epoch uint64
	// Writes is the commit's write set on this shard (nil otherwise).
	Writes []wire.KV
}

// Val is one versioned read served by a follower.
type Val struct {
	Key, Value string
	TS         truetime.Timestamp
}

// Chaos is fault injection for the replication layer, used only by tests
// and -chaos runs.
type Chaos struct {
	// DelayedApplies makes every follower acknowledge an entry's
	// watermark before applying its writes, then sleep ApplyDelay before
	// the apply, and serve reads without parking on the local t_safe. The
	// advertised t_safe runs ahead of the replica's actual state, so
	// routed snapshot reads miss committed writes and recorded histories
	// violate RSS — the checker must reject them.
	DelayedApplies bool
	// ApplyDelay is how long a delayed apply lags its acknowledgment.
	ApplyDelay time.Duration
}

// Transport is the leader's handle on one follower replica — the entire
// leader→follower surface. Group sequences entries over []Transport and
// never sees a concrete replica type, which is what lets an in-process
// channel replica and an out-of-process socket replica carry the same
// protocol (and the same failure matrix).
type Transport interface {
	// Offer hands one freshly appended batch of log entries to the
	// replica without blocking; a push transport that cannot accept it
	// must detach (its log would gap). The slice is shared between every
	// transport and must be treated as read-only. Pull transports ignore
	// Offer — the group's retained log is their channel (see Pull).
	Offer(es []Entry)
	// Pull reports whether the replica drains the group's retained log
	// (OpReplEntry pulls) instead of Offer pushes. The group retains and
	// truncates log entries only while pull transports are attached, and
	// truncation respects their AckedSeq.
	Pull() bool
	// Read serves a snapshot read at tread from the replica, waiting up
	// to timeout for its t_safe to cover tread. ok is false when the
	// replica cannot serve the read in time — dead, detached, or lagging
	// — and the caller must fall back to the leader. abandoned is true
	// when the request was handed to the replica but no reply arrived
	// within the timeout: the replica (or the goroutine driving its
	// socket) may still be holding keys, so the caller must not reuse the
	// slice's backing array.
	Read(tread truetime.Timestamp, keys []string, timeout time.Duration) (vals []Val, ok, abandoned bool)
	// Acked returns the follower's advertised t_safe — the watermark the
	// leader has seen acknowledged. It trails the replica's applied state
	// by one ack hop (or leads it, deliberately, under
	// Chaos.DelayedApplies).
	Acked() truetime.Timestamp
	// AckedSeq returns the last log position the follower has
	// acknowledged applying, the floor for leader-side log truncation.
	AckedSeq() uint64
	// Routable reports whether the transport may be offered reads: alive,
	// attached, and healthy. Watermark freshness is the router's check,
	// not the transport's.
	Routable() bool
	// Alive reports whether the replica is serving (false after Kill).
	Alive() bool
	// Kill simulates the replica's node dying: it stops serving and its
	// acknowledgments stop counting. Reads parked on it burn their
	// timeout and fail over; new reads fail over immediately.
	Kill()
	// DropAcks severs the follower→leader acknowledgment path while the
	// replica keeps applying: its advertised t_safe freezes, so the
	// router stops picking it for fresh reads and the leader serves them
	// instead.
	DropAcks()
	// Kind names the transport flavor ("chan", "sock") for stats.
	Kind() string
	// Close detaches the transport and releases its resources. The
	// caller must guarantee no concurrent Offer.
	Close()
}

// SockTransport is the leader's handle on an out-of-process replica (a
// Node). Entries flow follower→leader as pulls against the group's
// retained log, so the transport itself carries only the leader-side view:
// acknowledged progress (fed by OpReplAck messages), and a dial-back
// connection pool to the replica's read address for OpReplRead.
type SockTransport struct {
	shard int
	addr  string // the replica's advertised read address (its identity)
	pool  *netio.Pool

	acked    atomic.Int64
	ackedSeq atomic.Uint64
	lastAck  atomic.Int64 // unix nanos of the latest accepted ack
	dead     atomic.Bool
	dropAcks atomic.Bool
	detached atomic.Bool
	// belowFloor is the count, owned by the group the transport is attached
	// to (set by Attach), of reads the replica refused while the leader
	// still waited for them, for arriving below its read floor.
	belowFloor *atomic.Int64
}

// NewSockTransport dials back to a replica's advertised read address and
// returns the leader-side transport for one shard. Dial-back happens at
// registration (the replica's first pull), so a replica whose listener is
// unreachable is rejected before it can attract reads.
func NewSockTransport(shard int, addr string, maxFrame int) (*SockTransport, error) {
	pool, err := netio.DialPool(addr, 1, maxFrame)
	if err != nil {
		return nil, err
	}
	t := &SockTransport{shard: shard, addr: addr, pool: pool}
	t.lastAck.Store(time.Now().UnixNano()) // grace period for a fresh joiner
	return t, nil
}

// Offer is a no-op: socket replicas pull entries from the group's retained
// log (OpReplEntry) rather than receiving pushes.
func (t *SockTransport) Offer([]Entry) {}

// Pull reports that this transport drains the retained log.
func (t *SockTransport) Pull() bool { return true }

// Addr returns the replica's advertised read address.
func (t *SockTransport) Addr() string { return t.addr }

// RecordAck folds one OpReplAck into the leader-side view: the replica has
// applied through log position seq and safe-time watermark w. Monotone, so
// reordered acks on the wire cannot regress the advertised t_safe. Ignored
// after Kill or DropAcks — the leader-side halves of the failure matrix.
func (t *SockTransport) RecordAck(seq uint64, w truetime.Timestamp) {
	if t.dead.Load() || t.dropAcks.Load() || t.detached.Load() {
		return
	}
	for {
		cur := t.acked.Load()
		if int64(w) <= cur || t.acked.CompareAndSwap(cur, int64(w)) {
			break
		}
	}
	for {
		cur := t.ackedSeq.Load()
		if seq <= cur || t.ackedSeq.CompareAndSwap(cur, seq) {
			break
		}
	}
	t.lastAck.Store(time.Now().UnixNano())
}

// LastAck returns when the transport last accepted an acknowledgment
// (unix nanos; the attach time for a replica that has not acked yet). A
// replica whose acks have been silent for long is presumed dead — the
// server's registry uses this to evict departed processes, reclaiming
// their transports and letting log truncation move past them.
func (t *SockTransport) LastAck() int64 { return t.lastAck.Load() }

// Read serves a snapshot read at the remote replica over the dial-back
// connection. The replica parks the read until its applied watermark
// covers tread (bounded by its own park budget); the leader-side timeout
// bounds the whole round trip. A timed-out call reports abandoned: the
// goroutine driving the socket still references keys until the call
// resolves.
func (t *SockTransport) Read(tread truetime.Timestamp, keys []string, timeout time.Duration) (vals []Val, ok, abandoned bool) {
	if t.dead.Load() || t.detached.Load() {
		return nil, false, false
	}
	type result struct {
		resp *wire.Response
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		resp, err := t.pool.Call(&wire.Request{
			Op: wire.OpReplRead, TxnID: uint64(t.shard),
			TMin: int64(tread), Keys: keys,
		})
		ch <- result{resp, err}
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.err == nil && r.resp.Err == errMsgBelowFloor {
			t.belowFloor.Add(1)
		}
		if r.err != nil || !r.resp.OK || t.dead.Load() {
			return nil, false, false
		}
		wvs, err := wire.DecodeReplVals([]byte(r.resp.Value))
		if err != nil {
			return nil, false, false
		}
		vals = make([]Val, len(wvs))
		for i, v := range wvs {
			vals[i] = Val{Key: v.Key, Value: v.Value, TS: truetime.Timestamp(v.TS)}
		}
		return vals, true, false
	case <-timer.C:
		return nil, false, true // the late reply is drained by the goroutine
	}
}

// Acked returns the advertised t_safe (what the router sees).
func (t *SockTransport) Acked() truetime.Timestamp {
	return truetime.Timestamp(t.acked.Load())
}

// AckedSeq returns the last acknowledged log position (truncation floor).
func (t *SockTransport) AckedSeq() uint64 { return t.ackedSeq.Load() }

// Routable reports whether the replica may be offered reads.
func (t *SockTransport) Routable() bool { return !t.dead.Load() && !t.detached.Load() }

// Alive reports whether the replica is serving.
func (t *SockTransport) Alive() bool { return !t.dead.Load() }

// Kill simulates the replica's node dying, from the leader's side: reads
// are refused, acknowledgments stop counting, and truncation stops
// honoring its position. (The remote process, if it is actually alive,
// keeps applying — indistinguishable from a dead one to every reader.)
func (t *SockTransport) Kill() { t.dead.Store(true) }

// DropAcks severs the acknowledgment path: OpReplAck messages are ignored,
// freezing the advertised t_safe while the replica keeps applying.
func (t *SockTransport) DropAcks() { t.dropAcks.Store(true) }

// Kind names the transport flavor.
func (t *SockTransport) Kind() string { return "sock" }

// Close detaches the transport and tears down the dial-back pool.
func (t *SockTransport) Close() {
	if !t.detached.Swap(true) {
		t.pool.Close()
	}
}
