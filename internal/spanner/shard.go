package spanner

import (
	"fmt"

	"rsskv/internal/locks"
	"rsskv/internal/mvstore"
	"rsskv/internal/replication"
	"rsskv/internal/sim"
	"rsskv/internal/truetime"
)

// prepTxn is one entry of Algorithm 2's prepared set P.
type prepTxn struct {
	txn    TxnID
	tp     truetime.Timestamp
	tee    truetime.Timestamp
	writes []KV
}

// shardTxn tracks an executing or preparing RW transaction at this shard.
type shardTxn struct {
	txn       TxnID
	client    sim.NodeID
	prio      int64
	aborted   bool
	pendReads []ReadReq
	// Prepare state.
	preparing   bool
	prep        PrepareReq
	lockWaits   int
	blockStart  sim.Time
	deadlockTmr *sim.Timer
}

// coordTxn tracks two-phase commit at the coordinator.
type coordTxn struct {
	txn        TxnID
	votes      int
	needed     int
	failed     bool
	maxTP      truetime.Timestamp
	maxTEE     truetime.Timestamp
	clientNode sim.NodeID
	parts      []sim.NodeID // other participants' leader nodes
	decided    bool
}

// roBlocked is a read-only transaction waiting on the blocking set B
// (Algorithm 2 line 7).
type roBlocked struct {
	client sim.NodeID
	m      ROCommit
	await  map[TxnID]bool // remaining members of B
	pset   map[TxnID]bool // the conflicting prepared set P at arrival
}

// watcher subscribes one RO client to a skipped transaction's outcome.
type watcher struct {
	client sim.NodeID
	reqID  uint64
	keys   map[string]bool
}

// Shard is one shard's leader: lock table, multi-version store, prepared
// set, replication group leader, and the RO protocol of the configured
// mode. It is a single sim node; acceptors are separate nodes.
type Shard struct {
	Index int
	cfg   *Config
	clock *truetime.Clock
	store *mvstore.Store
	lm    *locks.Manager
	repl  *replication.Leader

	maxTS    truetime.Timestamp // floor for prepare/commit timestamps ("safe time")
	txns     map[TxnID]*shardTxn
	prepared map[TxnID]*prepTxn
	coord    map[TxnID]*coordTxn
	blocked  []*roBlocked
	watchers map[TxnID][]watcher
	dead     map[TxnID]bool // wounded txns awaiting the client's release
	// earlyVotes buffers PrepareVotes that outran the client's PrepareReq
	// to this coordinator (a nearby participant can validate and vote NO
	// before the coordinator learns it is the coordinator). Every
	// participant votes exactly once and the coordinator decides only on
	// the full count, so entries are always drained by the PrepareReq.
	earlyVotes map[TxnID][]PrepareVote

	ctx *sim.Context // valid during Recv (lock-manager callbacks)

	// Stats.
	ROFast    int64 // RO rounds answered without blocking
	ROBlocked int64 // RO rounds that blocked on B
	ROSkips   int64 // prepared transactions skipped (RSS)
	Wounds    int64
	Aborts    int64
}

// NewShard builds shard index. The replication leader must be attached via
// SetReplication before the world runs.
func NewShard(index int, cfg *Config, clock *truetime.Clock) *Shard {
	s := &Shard{
		Index:      index,
		cfg:        cfg,
		clock:      clock,
		store:      mvstore.New(),
		lm:         locks.NewManager(),
		txns:       make(map[TxnID]*shardTxn),
		prepared:   make(map[TxnID]*prepTxn),
		coord:      make(map[TxnID]*coordTxn),
		watchers:   make(map[TxnID][]watcher),
		dead:       make(map[TxnID]bool),
		earlyVotes: make(map[TxnID][]PrepareVote),
	}
	s.lm.OnGrant = s.onLockGrant
	s.lm.OnWound = s.onWound
	return s
}

// SetReplication attaches the shard's replication group.
func (s *Shard) SetReplication(l *replication.Leader) { s.repl = l }

// Init implements sim.Initer: it arms the version-GC timer when enabled.
// The timer only raises the store's floor; each key's old versions go at its
// next write (mvstore.Store.Advance).
func (s *Shard) Init(ctx *sim.Context) {
	if s.cfg.GCInterval <= 0 {
		return
	}
	window := s.cfg.GCWindow
	if window <= 0 {
		window = 10 * sim.Second
	}
	var tick func(*sim.Context)
	tick = func(ctx *sim.Context) {
		floor := s.clock.Now(ctx.Now()).Earliest - truetime.Timestamp(window)
		s.store.Advance(floor)
		ctx.After(s.cfg.GCInterval, tick)
	}
	ctx.After(s.cfg.GCInterval, tick)
}

// Store exposes the shard's version store (testing).
func (s *Shard) Store() *mvstore.Store { return s.store }

func (s *Shard) now() sim.Time { return s.ctx.Now() }

// tt returns the current TrueTime interval at this shard.
func (s *Shard) tt() truetime.Interval { return s.clock.Now(s.now()) }

// Recv implements sim.Handler.
func (s *Shard) Recv(ctx *sim.Context, from sim.NodeID, msg sim.Message) {
	s.ctx = ctx
	if s.cfg.ProcTime > 0 {
		ctx.Busy(s.cfg.ProcTime)
	}
	if s.repl != nil && s.repl.OnAck(ctx, msg) {
		return
	}
	switch m := msg.(type) {
	case ReadReq:
		s.onRead(from, m)
	case PrepareReq:
		s.onPrepare(from, m)
	case PrepareVote:
		s.onVote(m)
	case CommitDecision:
		s.onDecision(m)
	case ReleaseReq:
		s.abortLocal(m.Txn)
	case ROCommit:
		s.onROCommit(from, m)
	default:
		panic(fmt.Sprintf("spanner: shard got unexpected message %T", msg))
	}
	s.lm.Flush()
}

func (s *Shard) getTxn(txn TxnID, client sim.NodeID, prio int64) *shardTxn {
	t := s.txns[txn]
	if t == nil {
		t = &shardTxn{txn: txn, client: client, prio: prio}
		s.txns[txn] = t
	}
	return t
}

// ---- RW execution reads ----

func (s *Shard) onRead(from sim.NodeID, m ReadReq) {
	if s.dead[m.Txn] {
		s.ctx.Send(from, ReadReply{ReqID: m.ReqID, Key: m.Key, OK: false})
		return
	}
	t := s.getTxn(m.Txn, from, m.Prio)
	if t.aborted {
		s.ctx.Send(from, ReadReply{ReqID: m.ReqID, Key: m.Key, OK: false})
		return
	}
	out := s.lm.Acquire(locks.Request{Txn: m.Txn, Key: m.Key, Mode: locks.Shared, Prio: m.Prio})
	if out == locks.Granted {
		s.replyRead(t, m)
		return
	}
	t.pendReads = append(t.pendReads, m)
}

func (s *Shard) replyRead(t *shardTxn, m ReadReq) {
	v := s.store.Latest(m.Key)
	s.ctx.Send(t.client, ReadReply{ReqID: m.ReqID, Key: m.Key, Value: v.Value, TC: v.TS, OK: true})
}

// ---- Lock-manager callbacks ----

func (s *Shard) onLockGrant(req locks.Request) {
	t := s.txns[req.Txn]
	if t == nil {
		return
	}
	// Pending execution reads on this key.
	kept := t.pendReads[:0]
	for _, pr := range t.pendReads {
		if pr.Key == req.Key && req.Mode == locks.Shared {
			s.replyRead(t, pr)
		} else {
			kept = append(kept, pr)
		}
	}
	t.pendReads = kept
	// Prepare-phase write-lock acquisition.
	if t.preparing && req.Mode == locks.Exclusive {
		t.lockWaits--
		if t.lockWaits == 0 {
			s.finishPrepare(t)
		}
	}
}

func (s *Shard) onWound(txn TxnID) {
	s.Wounds++
	t := s.txns[txn]
	if t == nil || t.aborted {
		return
	}
	t.aborted = true
	s.dead[txn] = true // tombstone until the client's ReleaseReq
	for _, pr := range t.pendReads {
		s.ctx.Send(t.client, ReadReply{ReqID: pr.ReqID, Key: pr.Key, OK: false})
	}
	t.pendReads = nil
	if t.preparing {
		// Wounded while waiting for write locks: vote abort.
		s.voteAbort(t)
	} else {
		s.ctx.Send(t.client, AbortNotify{Txn: txn})
	}
	s.releaseTxn(txn)
}

func (s *Shard) releaseTxn(txn TxnID) {
	t := s.txns[txn]
	if t != nil && t.deadlockTmr != nil {
		t.deadlockTmr.Stop()
	}
	delete(s.txns, txn)
	s.lm.ReleaseAll(txn)
}

// abortLocal handles a client-initiated release (abort cleanup). It is
// the client's final message for the transaction at this shard, so the
// tombstone can be dropped.
func (s *Shard) abortLocal(txn TxnID) {
	delete(s.dead, txn)
	if t := s.txns[txn]; t != nil {
		t.aborted = true
	}
	if _, isPrepared := s.prepared[txn]; isPrepared {
		// Prepared state resolves only through the coordinator decision.
		return
	}
	s.releaseTxn(txn)
}

// ---- Two-phase commit ----

func (s *Shard) onPrepare(from sim.NodeID, m PrepareReq) {
	t := s.getTxn(m.Txn, m.ClientNode, m.Prio)
	t.client = m.ClientNode
	t.prep = m
	t.preparing = true
	if m.IsCoord {
		c := &coordTxn{
			txn:        m.Txn,
			needed:     m.NumParts,
			clientNode: m.ClientNode,
			parts:      m.Participants,
		}
		s.coord[m.Txn] = c
		for _, v := range s.earlyVotes[m.Txn] {
			s.applyVote(c, v)
		}
		delete(s.earlyVotes, m.Txn)
	}
	// Validate read locks (§5: "ensures the transaction still holds its
	// read locks"). A transaction wounded here earlier no longer holds
	// them (and pure writers are caught by the tombstone).
	if t.aborted || s.dead[m.Txn] || !s.lm.HoldsAll(m.Txn, m.ReadKeys) {
		t.aborted = true
		s.voteAbort(t)
		s.releaseTxn(m.Txn)
		return
	}
	// Acquire write locks.
	t.lockWaits = 0
	t.blockStart = s.now()
	waiting := 0
	for _, w := range m.Writes {
		if s.lm.Acquire(locks.Request{Txn: m.Txn, Key: w.Key, Mode: locks.Exclusive, Prio: m.Prio}) == locks.Waiting {
			waiting++
		}
	}
	t.lockWaits = waiting
	if waiting == 0 {
		s.finishPrepare(t)
		return
	}
	// Deadlock breaker: prepared holders are wound-immune, so a
	// prepare-time wait can (rarely) cycle across shards. Time out and
	// vote abort; the client retries.
	txn := m.Txn
	t.deadlockTmr = s.ctx.After(s.cfg.prepareDeadlock(), func(ctx *sim.Context) {
		s.ctx = ctx
		tt := s.txns[txn]
		if tt == nil || !tt.preparing || tt.lockWaits == 0 || tt.aborted {
			return
		}
		tt.aborted = true
		s.voteAbort(tt)
		s.releaseTxn(txn)
		s.lm.Flush()
	})
}

// finishPrepare runs once all write locks are held: choose t_p, log the
// prepare, and vote.
func (s *Shard) finishPrepare(t *shardTxn) {
	t.preparing = false
	if t.deadlockTmr != nil {
		t.deadlockTmr.Stop()
		t.deadlockTmr = nil
	}
	m := t.prep
	// §6 optimization 2: advance t_ee by the time spent blocked on locks.
	tee := m.TEE
	if !s.cfg.DisableOpt2 {
		tee += truetime.Timestamp(s.now() - t.blockStart)
	}
	tp := s.nextTS()
	if len(m.Writes) > 0 {
		s.prepared[m.Txn] = &prepTxn{txn: m.Txn, tp: tp, tee: tee, writes: m.Writes}
	}
	s.lm.SetPrepared(m.Txn)
	txn := m.Txn
	s.repl.Replicate(s.ctx, "prepare", func(ctx *sim.Context) {
		s.ctx = ctx
		s.sendVote(txn, PrepareVote{Txn: txn, OK: true, TP: tp, TEE: tee})
		s.lm.Flush()
	})
}

func (s *Shard) voteAbort(t *shardTxn) {
	s.sendVote(t.txn, PrepareVote{Txn: t.txn, OK: false})
}

// sendVote routes a vote to the coordinator — possibly this shard.
func (s *Shard) sendVote(txn TxnID, v PrepareVote) {
	t := s.txns[txn]
	if t == nil {
		return
	}
	if t.prep.IsCoord {
		if c := s.coord[txn]; c != nil {
			s.applyVote(c, v)
		}
		return
	}
	s.ctx.Send(t.prep.Coord, v)
}

func (s *Shard) onVote(v PrepareVote) {
	c := s.coord[v.Txn]
	if c == nil {
		// The vote outran the client's PrepareReq; hold it until the
		// coordinator role arrives.
		s.earlyVotes[v.Txn] = append(s.earlyVotes[v.Txn], v)
		return
	}
	if c.decided {
		return
	}
	s.applyVote(c, v)
}

func (s *Shard) applyVote(c *coordTxn, v PrepareVote) {
	if c.decided {
		return
	}
	c.votes++
	if !v.OK {
		c.failed = true
	}
	if v.TP > c.maxTP {
		c.maxTP = v.TP
	}
	if v.TEE > c.maxTEE {
		c.maxTEE = v.TEE
	}
	if c.votes < c.needed {
		return
	}
	c.decided = true
	if c.failed {
		s.decide(c, CommitDecision{Txn: c.txn, Committed: false})
		return
	}
	// Choose t_c ≥ all prepare timestamps, > TT.now().latest, > all
	// previously assigned timestamps at this shard.
	tc := s.nextTS()
	if c.maxTP > tc {
		tc = c.maxTP
		if tc > s.maxTS {
			s.maxTS = tc
		}
	}
	dec := CommitDecision{Txn: c.txn, Committed: true, TC: tc}
	s.repl.Replicate(s.ctx, "commit", func(ctx *sim.Context) {
		s.ctx = ctx
		// Commit wait: the decision becomes visible only once t_c is
		// guaranteed past (§5, [22]).
		wait := s.clock.UntilAfter(ctx.Now(), tc)
		if wait == 0 {
			s.decide(c, dec)
			s.lm.Flush()
			return
		}
		ctx.After(wait, func(ctx *sim.Context) {
			s.ctx = ctx
			s.decide(c, dec)
			s.lm.Flush()
		})
	})
}

// decide finalizes the outcome at the coordinator: notify the client and
// participants and apply locally.
func (s *Shard) decide(c *coordTxn, dec CommitDecision) {
	s.ctx.Send(c.clientNode, CommitReply{Txn: c.txn, Committed: dec.Committed, TC: dec.TC, TEE: c.maxTEE})
	for _, p := range c.parts {
		s.ctx.Send(p, dec)
	}
	delete(s.coord, c.txn)
	s.applyDecision(dec)
}

func (s *Shard) onDecision(m CommitDecision) {
	s.applyDecision(m)
}

// applyDecision installs a commit (or discards an abort) for a prepared
// transaction, releases its locks, and resolves any waiting RO work.
func (s *Shard) applyDecision(m CommitDecision) {
	p := s.prepared[m.Txn]
	t := s.txns[m.Txn]
	if m.Committed {
		if p != nil {
			for _, w := range p.writes {
				s.store.Write(w.Key, w.Value, m.TC)
			}
			if m.TC > s.maxTS {
				s.maxTS = m.TC
			}
			// Participants log the commit record asynchronously; the
			// latency-critical path is the coordinator's.
			s.repl.Replicate(s.ctx, "commit-apply", func(*sim.Context) {})
		}
	} else {
		s.Aborts++
	}
	delete(s.prepared, m.Txn)
	if t != nil {
		s.releaseTxn(m.Txn)
	} else {
		s.lm.ReleaseAll(m.Txn)
	}
	s.resolvePrepared(m.Txn, m.Committed, m.TC, p)
}

// nextTS returns a fresh timestamp greater than every timestamp this shard
// has assigned or promised (prepare timestamps, commit timestamps, and RO
// read timestamps), and at least TT.now().latest.
func (s *Shard) nextTS() truetime.Timestamp {
	ts := s.tt().Latest
	if ts <= s.maxTS {
		ts = s.maxTS + 1
	}
	s.maxTS = ts
	return ts
}

// ---- Read-only transactions (Algorithm 2) ----

func (s *Shard) onROCommit(from sim.NodeID, m ROCommit) {
	// Leader-lease safe time: promise no future write below t_read
	// (Algorithm 2 line 4; immediate at leaders, §5).
	if m.TRead > s.maxTS {
		s.maxTS = m.TRead
	}
	keys := make(map[string]bool, len(m.Keys))
	for _, k := range m.Keys {
		keys[k] = true
	}
	// P: conflicting prepared transactions with t_p ≤ t_read (line 5).
	pset := make(map[TxnID]bool)
	await := make(map[TxnID]bool)
	for id, p := range s.prepared {
		if p.tp > m.TRead || !conflictsKeys(p.writes, keys) {
			continue
		}
		pset[id] = true
		// B (line 6): required by causality (t_p ≤ t_min) or possibly
		// finished before the RO began (t_ee ≤ t_read). Baseline
		// Spanner blocks on all of P.
		if s.cfg.Mode != ModeRSS || p.tp <= m.TMin || p.tee <= m.TRead {
			await[id] = true
		}
	}
	ro := &roBlocked{client: from, m: m, await: await, pset: pset}
	if len(await) == 0 {
		s.roFastReply(ro)
		return
	}
	s.ROBlocked++
	s.blocked = append(s.blocked, ro)
}

func conflictsKeys(writes []KV, keys map[string]bool) bool {
	for _, w := range writes {
		if keys[w.Key] {
			return true
		}
	}
	return false
}

// roFastReply is Algorithm 2 lines 8–10.
func (s *Shard) roFastReply(ro *roBlocked) {
	s.ROFast++
	m := ro.m
	vals := make([]VersionedKV, 0, len(m.Keys))
	for _, k := range m.Keys {
		v := s.store.ReadAt(k, m.TRead)
		vals = append(vals, VersionedKV{Key: k, Value: v.Value, TC: v.TS})
	}
	var skipped []SkippedPrep
	keys := make(map[string]bool, len(m.Keys))
	for _, k := range m.Keys {
		keys[k] = true
	}
	for id := range ro.pset {
		p := s.prepared[id]
		if p == nil {
			continue // resolved while we waited for B
		}
		if ro.await[id] {
			continue // was in B, must have resolved; guarded above
		}
		s.ROSkips++
		sp := SkippedPrep{Txn: id, TP: p.tp}
		if !s.cfg.DisableOpt1 {
			// §6 optimization 1: ship the buffered writes now so the
			// client can finish as soon as it learns the commit
			// timestamp from any shard.
			for _, w := range p.writes {
				if keys[w.Key] {
					sp.Writes = append(sp.Writes, w)
				}
			}
		}
		skipped = append(skipped, sp)
		s.watchers[id] = append(s.watchers[id], watcher{client: ro.client, reqID: m.ReqID, keys: keys})
	}
	s.ctx.Send(ro.client, ROFastReply{ReqID: m.ReqID, Vals: vals, Skipped: skipped})
}

// resolvePrepared wakes blocked ROs and notifies slow-reply watchers when a
// prepared transaction commits or aborts (Algorithm 2 lines 7 and 11–18).
func (s *Shard) resolvePrepared(txn TxnID, committed bool, tc truetime.Timestamp, p *prepTxn) {
	// Slow replies.
	for _, w := range s.watchers[txn] {
		reply := ROSlowReply{ReqID: w.reqID, Txn: txn, Committed: committed, TC: tc}
		if committed && p != nil {
			for _, kv := range p.writes {
				if w.keys[kv.Key] {
					reply.Vals = append(reply.Vals, VersionedKV{Key: kv.Key, Value: kv.Value, TC: tc})
				}
			}
		}
		s.ctx.Send(w.client, reply)
	}
	delete(s.watchers, txn)
	// Unblock ROs waiting on B.
	kept := s.blocked[:0]
	for _, ro := range s.blocked {
		if ro.await[txn] {
			delete(ro.await, txn)
		}
		if len(ro.await) == 0 {
			s.roFastReply(ro)
		} else {
			kept = append(kept, ro)
		}
	}
	s.blocked = kept
}
