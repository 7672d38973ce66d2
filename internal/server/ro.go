package server

import (
	"fmt"
	"sync"
	"time"

	"rsskv/internal/obs"
	"rsskv/internal/replication"
	"rsskv/internal/truetime"
	"rsskv/internal/wire"
)

// This file is the live-server port of the paper's read-only transaction
// protocol (§5, Algorithms 1 and 2), from the simulator's internal/spanner
// shard and client. A snapshot read never touches the lock table and can
// never be wounded:
//
//	server    pick t_read = max(TT.now().latest, client t_min) and fan
//	          the key set out to its shards
//	follower  (replicated shards) if a replica's acknowledged t_safe is
//	          close enough to t_read, serve the whole shard portion there:
//	          the replica parks until its applied watermark covers t_read,
//	          then reads versions at t_read — everything at or below the
//	          watermark is fully applied, so the leader, its lock table,
//	          its prepared set, and the blocking rule are all bypassed
//	shard     (leader path) promise no future commit at or below t_read
//	          (advance maxTS), then compute the conflicting prepared set P
//	          with t_p ≤ t_read and its blocking subset B — preparers
//	          required by causality (t_p ≤ t_min) or possibly already
//	          finished (t_ee ≤ t_read). Wait for B only; read each key's
//	          version at t_read; skip the rest of P, subscribing to their
//	          outcomes (watchers)
//	server    compute t_snap = max over keys of the observed version
//	          timestamps (Algorithm 1 line 14); any skipped preparer with
//	          t_p ≤ t_snap could fall inside the snapshot, so wait for
//	          its outcome and, if it committed at t_c ≤ t_snap, fold its
//	          buffered writes in (§6 optimization 1); finally return each
//	          key's newest version at or below t_snap, and t_snap itself
//	          so the client advances its session t_min
//
// Because t_read is drawn at the server after every previously-completed
// write has finished commit wait, any conflicting write that completed
// before the snapshot read was invoked is visible at t_read — condition
// (3) of RSS. Preparers skipped under the B-rule are exactly those that
// cannot have completed yet and are not causally required, which is what
// lets the read return without waiting out concurrent two-phase commits.

// readFloor is the server-wide registry of in-flight snapshot reads, and so
// the source of the floor every store of the fleet is trimmed to (mvstore.
// Store.Advance): no snapshot read whose result anyone will use executes
// against a store, the leader's or a follower's, below floor().
//
// A read enters before it has a timestamp: enter reads the clock and links
// the read's pin, at that reading less lag, in one critical section, and
// every path of readOnly then chooses a t_read at or above its pin. Pins
// are therefore non-decreasing in list order, the oldest in-flight read is
// the head, and enter, leave and floor are O(1) and allocate nothing (the
// pin lives in the read's pooled scratch). The floor is the head's pin or,
// with nothing in flight, what a read entering now would be pinned at —
// computed under the same lock, so a read is either in the list when a
// floor is computed or enters later and is pinned at or above it. A floor
// once computed thus stays below every read that is or will be in flight,
// which is what lets a shard use one for a whole drain and ship it to
// followers that apply it later still.
//
// leave is called when the read has responded or has been abandoned.
// Portions of an abandoned read may still execute (a waiter parked on a
// closing shard, a replica read the leader timed out on); their results
// are discarded, so they may read anything.
type readFloor struct {
	clock *truetime.WallClock
	// lag is how far below TT.now().latest this configuration can choose a
	// t_read: 0 in production, the largest of the lags the ablation and
	// chaos modes read at otherwise (readLag). Fixed at Open.
	lag truetime.Timestamp

	mu         sync.Mutex
	head, tail *readPin // in-flight reads, oldest first
}

// readPin is one in-flight read's entry in the registry: a lower bound on
// its t_read.
type readPin struct {
	ts         truetime.Timestamp
	prev, next *readPin
}

// readLag is the largest amount by which cfg lets readOnly choose a t_read
// below TT.now().latest.
func readLag(cfg *Config) time.Duration {
	lag := cfg.POReadLag
	if cfg.ChaosStaleReads && chaosStaleness > lag {
		lag = chaosStaleness
	}
	if cfg.ChaosLostCommitWait && 2*cfg.Epsilon > lag {
		lag = 2 * cfg.Epsilon // TT.now().earliest
	}
	return lag
}

// enter registers a read and returns the clock reading its t_read must be
// chosen from: at or above now.Latest − lag.
func (f *readFloor) enter(p *readPin) truetime.Interval {
	f.mu.Lock()
	now := f.clock.Now()
	p.ts = now.Latest - f.lag
	p.prev, p.next = f.tail, nil
	if f.tail != nil {
		f.tail.next = p
	} else {
		f.head = p
	}
	f.tail = p
	f.mu.Unlock()
	return now
}

// leave removes a read entered with enter, exactly once.
func (f *readFloor) leave(p *readPin) {
	f.mu.Lock()
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		f.head = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		f.tail = p.prev
	}
	p.prev, p.next = nil, nil
	f.mu.Unlock()
}

// floor returns a timestamp no in-flight or future read executes below.
func (f *readFloor) floor() truetime.Timestamp {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.head != nil {
		return f.head.ts
	}
	return f.clock.Now().Latest - f.lag
}

// chaosStaleness is how far -chaos=stale-reads lowers t_read below the
// present. Any conflicting write that completed within this window before
// the read makes the recorded history violate RSS, which is the point: the
// checker must reject a server that serves stale snapshots.
const chaosStaleness = 10 * time.Millisecond

// chaosApplyDelay is how long -chaos=delayed-applies holds a follower
// apply behind its (already sent) acknowledgment: the window in which
// routed snapshot reads observe a store missing acknowledged commits.
const chaosApplyDelay = 10 * time.Millisecond

// maxTMinLead bounds how far a request's t_min may lead this server's
// clock and still be waited out (cross-server clock skew, §4.2); beyond
// it the request is rejected as malformed.
const maxTMinLead = time.Second

// roWaiter is one shard's portion of a snapshot read. It parks on the
// shard (s.roBlocked) while its blocking set await is non-empty; the reply
// channel is buffered so shard loops never block sending it. The
// coordinator's waiters live in its pooled scratch, one per shard.
type roWaiter struct {
	s     *shard
	keys  []string
	tread truetime.Timestamp
	tmin  truetime.Timestamp
	chaos bool // serve immediately, ignoring the prepared set

	// leaked records that a follower read of these keys was abandoned in
	// flight before this leader fallback, so the coordinator must not
	// pool the scratch the key slice lives in.
	leaked bool

	// pset is P: conflicting prepared transactions with t_p ≤ t_read at
	// arrival. await is its blocking subset B; entries are removed as
	// they resolve. Allocated lazily — most reads meet an empty prepared
	// set — and then kept with the waiter.
	pset  map[uint64]bool
	await map[uint64]bool

	// vals is the backing of the reply's versioned reads, kept with the
	// waiter; the coordinator is done with a reply's vals before it
	// releases the scratch.
	vals []roVal

	// parkedAt is when the waiter joined s.roBlocked (zero when the read
	// was served without blocking); roReply records the park duration.
	parkedAt time.Time

	reply chan roShardReply
	// join is the coordinator's exposure join: roReply queues one release
	// of it, covering the versions this portion read.
	join *exposureJoin

	// start is s.roRead(w) as a closure, bound once when the pool makes
	// the scratch, so fanning out submits a func() that already exists.
	start func()
}

// begin resets w for one read of keys at tread.
func (w *roWaiter) begin(keys []string, tread, tmin truetime.Timestamp, chaos bool) {
	w.keys, w.tread, w.tmin, w.chaos = keys, tread, tmin, chaos
	w.leaked = false
	w.parkedAt = time.Time{}
	clear(w.pset)
	clear(w.await)
}

// roVal is a versioned read result, shard → coordinator.
type roVal struct {
	key, value string
	ts         truetime.Timestamp
}

// roSkip is a prepared transaction the shard skipped (Algorithm 2's
// RSS-mode reply): the coordinator must consult ch before placing the
// snapshot at or after tp.
type roSkip struct {
	txnID uint64
	tp    truetime.Timestamp
	ch    <-chan prepOutcome
}

type roShardReply struct {
	vals    []roVal
	fvals   []replication.Val // follower-served portion (instead of vals)
	skipped []roSkip
	// follower marks a portion served by a replica — it owes the
	// coordinator's join nothing, because followers only ever see entries
	// that were already durable on the leader; leaked marks a portion
	// whose key slice may still be referenced by a timed-out replica read
	// (the scratch must not be pooled).
	follower bool
	leaked   bool
}

// roScratch is the per-request fan-out state of a snapshot read, pooled on
// the server so a hot RO path stops paying half a dozen allocations per
// request. A scratch is returned to the pool only when no other goroutine
// can still reference its buffers: abandoned fan-outs (server shutdown) and
// timed-out follower reads leak theirs to the garbage collector instead.
type roScratch struct {
	seen     map[string]bool
	keys     []string
	shardIDs []int      // involved shard ids, fan-out order
	perShard [][]string // keys per shard, indexed by shard id
	waiters  []roWaiter // the leader-served portions, indexed by shard id
	vals     map[string]roVal
	skipped  []roSkip
	reply    chan roShardReply
	join     exposureJoin // one release per leader-served portion
	trace    obs.Trace    // per-stage timeline for the slow-op log
	pin      readPin      // the read's registration while it is in flight
}

func (srv *Server) newROScratch() *roScratch {
	sc := &roScratch{
		seen:     make(map[string]bool),
		perShard: make([][]string, len(srv.shards)),
		waiters:  make([]roWaiter, len(srv.shards)),
		vals:     make(map[string]roVal),
		reply:    make(chan roShardReply, len(srv.shards)),
		join:     exposureJoin{ch: make(chan struct{}, 1)},
	}
	for i := range sc.waiters {
		w := &sc.waiters[i]
		w.s, w.reply, w.join = srv.shards[i], sc.reply, &sc.join
		w.start = func() { w.s.roRead(w) }
	}
	return sc
}

// release resets the scratch and returns it to the pool. Callers must not
// release a scratch whose reply channel may still receive a send or whose
// key slices a follower may still read. Everything that holds a string is
// cleared, not truncated: keys are views into the request's frame (see
// package wire), and a pooled scratch must not pin it — nor the values,
// which belong to the store.
func (sc *roScratch) release(srv *Server) {
	clear(sc.seen)
	clear(sc.vals)
	clear(sc.keys)
	sc.keys = sc.keys[:0]
	for _, sid := range sc.shardIDs {
		clear(sc.perShard[sid])
		sc.perShard[sid] = sc.perShard[sid][:0]
		w := &sc.waiters[sid]
		w.keys = nil
		clear(w.vals)
	}
	sc.shardIDs = sc.shardIDs[:0]
	clear(sc.skipped)
	sc.skipped = sc.skipped[:0]
	sc.trace.Reset()
	srv.roPool.Put(sc)
}

// roRead starts one shard's portion of a snapshot read at the leader.
// Loop-only.
func (s *shard) roRead(w *roWaiter) {
	if w.chaos {
		// Fault injection: no safe-time promise, no blocking, no watch —
		// read whatever the store has at the (stale) t_read.
		s.roReply(w)
		return
	}
	// Leader-lease safe time: promise no future commit at or below t_read
	// (Algorithm 2 line 4; immediate at a single leader).
	if w.tread > s.maxTS {
		s.maxTS = w.tread
	}
	for id, p := range s.prepared {
		if p.tp > w.tread || !conflictsKeys(p.writes, w.keys) {
			continue
		}
		if w.pset == nil {
			w.pset = make(map[uint64]bool)
			w.await = make(map[uint64]bool)
		}
		w.pset[id] = true
		// B (Algorithm 2 line 6): required by causality (t_p ≤ t_min) or
		// possibly finished before the read began (t_ee ≤ t_read).
		if p.tp <= w.tmin || p.tee <= w.tread {
			w.await[id] = true
		}
	}
	if len(w.await) == 0 {
		s.roReply(w)
		return
	}
	s.srv.stats.ROBlocked.Add(1)
	w.parkedAt = time.Now()
	s.roBlocked = append(s.roBlocked, w)
}

func conflictsKeys(writes []wire.KV, keys []string) bool {
	for _, kv := range writes {
		for _, k := range keys {
			if kv.Key == k {
				return true
			}
		}
	}
	return false
}

// roReply serves the shard's versioned reads at t_read and subscribes the
// coordinator to every still-prepared member of P it skipped (Algorithm 2
// lines 8–10). Loop-only; runs once w's blocking set has drained.
func (s *shard) roReply(w *roWaiter) {
	if !w.parkedAt.IsZero() {
		s.srv.metrics.roBlockWait.ObserveSince(w.parkedAt)
	}
	if w.tread < s.floor {
		// Impossible for a read whose coordinator still waits (readFloor);
		// an abandoned one's result is discarded. Counted either way.
		s.srv.metrics.belowFloor.Inc()
	}
	w.vals = w.vals[:0]
	for _, k := range w.keys {
		v := s.store.ReadAt(k, w.tread)
		w.vals = append(w.vals, roVal{key: k, value: v.Value, ts: v.TS})
	}
	reply := roShardReply{vals: w.vals}
	for id := range w.pset {
		p := s.prepared[id]
		if p == nil {
			continue // resolved while we waited on B
		}
		s.srv.stats.ROSkips.Add(1)
		ch := make(chan prepOutcome, 1)
		p.watchers = append(p.watchers, ch)
		reply.skipped = append(reply.skipped, roSkip{txnID: id, tp: p.tp, ch: ch})
	}
	reply.leaked = w.leaked
	// The versions just read may sit in the current unflushed batch.
	s.expose(exposure{join: w.join})
	w.reply <- reply
}

// followerRead serves one shard's portion of a snapshot read at a
// replica, falling back to the shard leader if the replica cannot serve
// in time. The replica is whatever Transport the router picked — an
// in-process channel follower or an out-of-process socket replica; the
// protocol (park until the watermark covers t_read, then serve versioned
// reads) is identical behind the interface. It runs on its own goroutine
// so watermark parks and timeouts across shards overlap instead of
// serializing; the reply lands on the coordinator's fan-out channel
// either way. w is the shard's waiter in the coordinator's scratch, already
// set up for the leader fallback.
func (srv *Server) followerRead(f replication.Transport, w *roWaiter) {
	fvals, ok, abandoned := f.Read(w.tread, w.keys, srv.cfg.FollowerReadTimeout)
	if ok {
		srv.stats.ROFollower.Add(1)
		if f.Kind() == "sock" {
			srv.stats.ROFollowerSock.Add(1)
		} else {
			srv.stats.ROFollowerChan.Add(1)
		}
		w.reply <- roShardReply{fvals: fvals, follower: true}
		return
	}
	srv.stats.ROFallback.Add(1)
	w.leaked = abandoned
	w.s.run(w.start) // refused only by a closing server; the coordinator abandons via srv.quit
}

// readOnly serves a snapshot read-only transaction: admission, then the
// read itself between its registration in the read floor and its removal.
// Runs on its own goroutine per request, like the 2PC coordinator.
func (srv *Server) readOnly(req *wire.Request, cw *connWriter) {
	// Admission before any snapshot state is touched: a rejected read
	// draws no t_read, advances no maxTS, subscribes to no prepared
	// transaction — it never happened. Charged to the bottleneck shard
	// of its key set.
	if g := srv.admitFor(req.Keys, nil, nil); g != nil {
		if ok, retryUS := g.admit(); !ok {
			cw.Send(overloadResponse(req, retryUS))
			return
		}
		defer g.refund() // the read ran: refund its completion fraction
	}
	sc := srv.roPool.Get().(*roScratch)
	now := srv.reads.enter(&sc.pin)
	clean := srv.snapshotRead(req, cw, sc, now)
	srv.reads.leave(&sc.pin)
	if clean {
		sc.release(srv)
	}
}

// snapshotRead coordinates one registered snapshot read across shards and
// renders the response. now is the clock reading the read was registered
// at: every t_read chosen below is at or above now.Latest less the
// configuration's read lag, which is what the registration promised. It
// reports whether sc may be pooled again — false when the read was
// abandoned with sends still pending on the scratch's channels or a
// timed-out replica still holding its key slices.
func (srv *Server) snapshotRead(req *wire.Request, cw *connWriter, sc *roScratch, now truetime.Interval) (clean bool) {
	start := time.Now()
	tmin := truetime.Timestamp(req.TMin)
	chaos := srv.cfg.ChaosStaleReads
	var tread truetime.Timestamp
	switch {
	case srv.cfg.ChaosLostCommitWait:
		// Fault injection, read-side half: trust the clock's earliest
		// bound — the reader commit wait exists to protect. With commit
		// wait lost, a mutation acknowledged moments ago can carry a
		// commit timestamp up to 2ε above this t_read, so the snapshot
		// misses completed writes. The session floor is ignored for the
		// same reason a real victim's would be useless: the server
		// already broke the only promise the floor builds on.
		tread = now.Earliest
	case chaos:
		// Serve an artificially stale snapshot and ignore both the
		// session floor and the prepared set. The RSS checker must
		// reject histories recorded against this server.
		tread = now.Latest - truetime.Timestamp(chaosStaleness)
		if tread < 0 {
			tread = 0
		}
	case srv.cfg.POReadLag > 0:
		// PO ablation (the live spanner.ModePO): serve a session-consistent
		// snapshot POReadLag behind real time. The t_min floor is kept —
		// process order and propagated causality survive, which is what
		// makes this PO-serializability rather than arbitrary staleness —
		// but completed writes by other sessions stay invisible inside the
		// lag window, so cross-session real-time order (RSS condition 3) is
		// deliberately dropped. The prepared-set machinery still runs at
		// the lowered t_read: anything prepared below it is handled by the
		// normal blocking rule.
		tread = now.Latest - truetime.Timestamp(srv.cfg.POReadLag)
		if tread < 0 {
			tread = 0
		}
		if tmin > tread {
			if tmin-now.Latest > truetime.Timestamp(maxTMinLead) {
				cw.Send(&wire.Response{
					ID: req.ID, Op: req.Op,
					Err: fmt.Sprintf("t_min %d implausibly far ahead of server clock %d", tmin, now.Latest),
				})
				return true
			}
			srv.clock.WaitUntilAfter(tmin)
			tread = tmin
		}
	default:
		tread = now.Latest
		if tmin > tread {
			// Every timestamp this server mints has passed (commit wait)
			// before a client learns it, so a session's t_min can lead
			// this clock only by cross-server skew (a t_min propagated
			// from another service, §4.2). Wait out a bounded lead rather
			// than serving at t_min directly: advancing the shards'
			// safe-time floors to an arbitrary future t_read would stall
			// every later write on those shards in commit wait, so an
			// implausible lead is a protocol violation, not a reason to
			// wait — reject it (otherwise one hostile frame is a denial
			// of service).
			if tmin-tread > truetime.Timestamp(maxTMinLead) {
				cw.Send(&wire.Response{
					ID: req.ID, Op: req.Op,
					Err: fmt.Sprintf("t_min %d implausibly far ahead of server clock %d", tmin, tread),
				})
				return true
			}
			srv.clock.WaitUntilAfter(tmin)
			tread = srv.clock.Now().Latest
		}
	}

	// Fan out to shards (dedup keys, preserving first-occurrence order
	// for the response).
	clean = true
	for _, k := range req.Keys {
		if sc.seen[k] {
			continue
		}
		sc.seen[k] = true
		sc.keys = append(sc.keys, k)
		sid := srv.shardFor(k).id
		if len(sc.perShard[sid]) == 0 {
			sc.shardIDs = append(sc.shardIDs, sid)
		}
		sc.perShard[sid] = append(sc.perShard[sid], k)
	}
	if len(sc.keys) == 0 {
		cw.Send(&wire.Response{ID: req.ID, Op: req.Op, OK: true, Version: int64(tread)})
		srv.stats.ROs.Add(1)
		return true
	}

	// Serve each shard's portion at a follower replica when the
	// replicated t_safe allows it; otherwise fan out to the leader.
	// Follower portions get a goroutine each so their watermark parks
	// (and worst-case timeouts) overlap across shards.
	lagBudget := truetime.Timestamp(srv.cfg.FollowerReadTimeout)
	fanout := 0
	for _, sid := range sc.shardIDs {
		s, w := srv.shards[sid], &sc.waiters[sid]
		w.begin(sc.perShard[sid], tread, tmin, chaos)
		fanout++
		// Active() gates the scan so a join-enabled server with no
		// replicas attached neither pays the routing scan nor counts
		// phantom fallbacks.
		if s.repl != nil && s.repl.Active() && !chaos {
			if f := s.repl.Route(tread, lagBudget); f != nil {
				go srv.followerRead(f, w)
				continue
			}
			srv.stats.ROFallback.Add(1)
		}
		if !s.run(w.start) {
			cw.Send(&wire.Response{ID: req.ID, Op: req.Op, Err: errClosed.Error()})
			return false // abandoned: pending sends may still land on sc.reply
		}
	}
	followerShards := 0
	for i := 0; i < fanout; i++ {
		select {
		case r := <-sc.reply:
			if r.leaked {
				clean = false // a timed-out replica read may still hold keys
			}
			if r.follower {
				followerShards++
			}
			for _, v := range r.vals {
				sc.vals[v.key] = v
			}
			for _, v := range r.fvals {
				sc.vals[v.Key] = roVal{value: v.Value, ts: v.TS}
			}
			sc.skipped = append(sc.skipped, r.skipped...)
		case <-srv.quit:
			cw.Send(&wire.Response{ID: req.ID, Op: req.Op, Err: errClosed.Error()})
			return false // abandoned
		}
	}
	sc.trace.Mark("fanout", time.Since(start))

	// t_snap (Algorithm 1 lines 14–20): the earliest timestamp at which
	// every key has its observed value — the max over keys of the
	// fast-path version timestamps (follower- and leader-served alike;
	// every one is ≤ t_read).
	var tsnap truetime.Timestamp
	for _, v := range sc.vals {
		if v.ts > tsnap {
			tsnap = v.ts
		}
	}

	// Algorithm 1 lines 9–12 and 21–23: a skipped preparer with
	// t_p ≤ t_snap could commit inside the snapshot; wait for its outcome
	// and, if it committed at t_c ≤ t_snap, fold the newest such write per
	// key in. Skipped preparers with t_p > t_snap serialize after the
	// snapshot and are ignored. Follower-served shards contribute no
	// skips: nothing prepared below a follower's watermark is unresolved.
	for _, sk := range sc.skipped {
		if sk.tp > tsnap {
			continue
		}
		select {
		case out, ok := <-sk.ch:
			if !ok {
				// The resolution's flush failed (crash, or fenced mid-ack):
				// the outcome this snapshot would have placed itself against
				// may not exist in the next view, so the response is dropped.
				return false // abandoned: scratch leaks like other abandon paths
			}
			if out.committed && out.tc <= tsnap {
				for _, kv := range out.writes {
					if cur, wanted := sc.vals[kv.Key], sc.seen[kv.Key]; wanted && out.tc > cur.ts {
						sc.vals[kv.Key] = roVal{value: kv.Value, ts: out.tc}
					}
				}
				// No separate wait: a received outcome has already passed
				// the resolving shard's exposure gate.
			}
		case <-srv.quit:
			cw.Send(&wire.Response{ID: req.ID, Op: req.Op, Err: errClosed.Error()})
			return false // abandoned
		}
	}

	// The exposure gate: everything this snapshot exposes must survive a
	// crash and a failover before the client may see it. Each leader-served
	// portion queued one release; on a failed flush the response is dropped
	// (the connection is being torn down anyway).
	if !sc.join.wait(fanout - followerShards) {
		return false // abandoned: scratch leaks like other abandon paths
	}

	// Render: each key's newest version at or below t_snap. A key with no
	// version in the snapshot renders the paper's null (the zero roVal).
	resp := &wire.Response{
		ID: req.ID, Op: req.Op, OK: true, Version: int64(tsnap),
		Follower: followerShards > 0 && followerShards == fanout,
	}
	resp.KVs = make([]wire.KV, 0, len(sc.keys))
	resp.Vers = make([]int64, 0, len(sc.keys))
	for _, k := range sc.keys {
		resp.KVs = append(resp.KVs, wire.KV{Key: k, Value: sc.vals[k].value})
		resp.Vers = append(resp.Vers, int64(sc.vals[k].ts))
	}
	srv.stats.ROs.Add(1)
	total := time.Since(start)
	srv.metrics.roTotal.Observe(int64(total))
	sc.trace.Mark("snap", total)
	srv.metrics.slow.Record("ro-txn", req.ID, &sc.trace, total)
	cw.Send(resp)
	return clean
}
