package replication

import (
	"sync"
	"sync/atomic"
	"time"

	"rsskv/internal/truetime"
)

// DefaultRetain is the default cap on retained log entries per group. A
// pull replica that falls further behind than this is truncated past and
// must catch up via snapshot — the cap is what keeps one stuck replica
// from pinning the leader's memory.
const DefaultRetain = 4096

// Group is the replication group under one shard: the shard apply loop is
// the primary and appends; transports carry entries to follower replicas.
// Group is a pure leader-side sequencer over []Transport — it never sees a
// concrete replica type. AppendBatch must come from a single appender (the
// shard apply loop); everything else is safe from any goroutine.
//
// For pull transports (out-of-process replicas) the group retains a
// bounded suffix of the log: entries below every attached replica's
// acknowledged position are truncated eagerly, and a hard cap (SetRetain)
// bounds what a lagging replica can pin. A pull below the retained suffix
// answers "snapshot required" — the catch-up path.
type Group struct {
	shard int

	mu         sync.Mutex
	transports []Transport
	nPull      int // attached transports with Pull() true
	nextSeq    uint64
	logStart   uint64  // position of the entry just before log[0]
	log        []Entry // retained suffix: positions logStart+1 .. nextSeq
	dead       int     // truncated entries not yet compacted away
	retain     int
	lastWM     truetime.Timestamp // newest appended watermark (any kind)
	appendC    chan struct{}      // closed and replaced on append (broadcast)
	ackC       chan struct{}      // closed and replaced on ack progress (broadcast)
	closed     bool
	fenced     bool // a newer epoch exists; appends are refused, WaitAcked aborts
	keepLog    bool // retain the log (up to the cap) even with no pull replicas
	epoch      uint64

	// belowFloor counts the reads a follower of either transport refused,
	// while the leader still waited for them, because they arrived below
	// the follower's read floor (replica.serve).
	belowFloor atomic.Int64

	// active mirrors len(transports) > 0 so hot paths (Route, the shard
	// replicate call sites) can skip the mutex when the group is idle.
	active atomic.Bool
	rr     atomic.Uint64
}

// NewGroup builds a group for the given shard with n in-process channel
// followers and starts their apply goroutines. Unreplicated shards that
// also refuse replica joins keep a nil *Group rather than an empty one.
func NewGroup(shard, n int, chaos Chaos) *Group {
	g := &Group{shard: shard, retain: DefaultRetain, appendC: make(chan struct{}), ackC: make(chan struct{})}
	for i := 0; i < n; i++ {
		g.Attach(newChanTransport(i, shard, chaos, g.noteAck))
	}
	return g
}

// SetEpoch installs the view epoch stamped on every subsequent append.
// Called once at open (or promotion) before the shard loops start.
func (g *Group) SetEpoch(e uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.epoch = e
}

// Epoch returns the view epoch the group stamps on appends.
func (g *Group) Epoch() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// SetRetain caps the retained log suffix (entries). Only meaningful before
// pull replicas attach; tests use small caps to force the snapshot path.
func (g *Group) SetRetain(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n > 0 {
		g.retain = n
	}
}

// Attach adds a transport to the group (a replica joining). Safe against
// concurrent AppendBatch.
func (g *Group) Attach(t Transport) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		t.Close()
		return
	}
	// The two transports whose Read can hear a follower refuse a read below
	// its floor count into the group, from before the router can offer
	// them one.
	switch t := t.(type) {
	case *ChanTransport:
		t.belowFloor = &g.belowFloor
	case *SockTransport:
		t.belowFloor = &g.belowFloor
	}
	g.transports = append(g.transports, t)
	if t.Pull() {
		g.nPull++
	}
	g.active.Store(true)
}

// Detach removes a transport from the group (a replaced or departed
// replica). The caller closes the transport; Detach only stops offering it
// entries and reads. It reports whether the transport was attached.
func (g *Group) Detach(t Transport) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, cur := range g.transports {
		if cur == t {
			g.transports = append(g.transports[:i], g.transports[i+1:]...)
			if t.Pull() {
				g.nPull--
			}
			g.active.Store(len(g.transports) > 0)
			// Wake ack waiters: the detached transport may have been the
			// one WaitAcked was waiting on, and eligibility just changed.
			close(g.ackC)
			g.ackC = make(chan struct{})
			return true
		}
	}
	return false
}

// noteAck wakes WaitAcked parkers: some follower's acknowledged position
// advanced. Called from ack paths (in-process apply loops, the server's
// OpReplAck handler) — never from the shard apply loop, so a flush parked
// in WaitAcked cannot deadlock against the wake-up it needs.
func (g *Group) noteAck() {
	g.mu.Lock()
	close(g.ackC)
	g.ackC = make(chan struct{})
	g.mu.Unlock()
}

// NoteAck is the exported wake hook for ack progress recorded outside the
// group (the server folds OpReplAck messages into SockTransports directly).
func (g *Group) NoteAck() { g.noteAck() }

// WaitAcked blocks until some live routable follower has acknowledged
// applying through log position seq, the group has no eligible follower
// left (nothing to wait for — the leader proceeds unreplicated, as before
// synchronous mode), or quit closes. It returns false only when the group
// was fenced or closed while waiting: the caller is no longer the leader
// and must abandon the flush rather than release responses.
//
// This is the synchronous-replication gate (Config.SyncRepl): called by the
// shard flush between replication append and response release, it ensures
// every acknowledged write survives a leader loss that promotes a follower
// — the property the RSS checker needs to hold across a merged
// pre/post-failover history.
func (g *Group) WaitAcked(seq uint64, quit <-chan struct{}) bool {
	for {
		g.mu.Lock()
		if g.closed || g.fenced {
			g.mu.Unlock()
			return false
		}
		eligible := false
		for _, t := range g.transports {
			if !t.Alive() || !t.Routable() {
				continue
			}
			eligible = true
			if t.AckedSeq() >= seq {
				g.mu.Unlock()
				return true
			}
		}
		ch := g.ackC
		g.mu.Unlock()
		if !eligible {
			return true // no follower to wait for; degrade to async
		}
		select {
		case <-ch:
		case <-quit:
			return true // shutdown path: let the flush finish draining
		}
	}
}

// Fence marks the group deposed: a newer epoch exists. Appends return 0
// without sequencing, and WaitAcked parkers wake returning false so an
// in-flight flush abandons instead of releasing responses for writes the
// new view will never hold.
func (g *Group) Fence() {
	g.mu.Lock()
	if !g.fenced {
		g.fenced = true
		close(g.ackC)
		g.ackC = make(chan struct{})
	}
	g.mu.Unlock()
}

// Fenced reports whether the group has been fenced out of its view.
func (g *Group) Fenced() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.fenced
}

// BelowFloor returns how many snapshot reads the group's followers have
// refused, while the leader still waited for them, for arriving below their
// read floor — a tripwire that stays 0 while the leader's floor is right.
// A read the leader has given up on is refused too, but nobody counts it.
func (g *Group) BelowFloor() int64 { return g.belowFloor.Load() }

// Active reports whether any transport is attached — the cheap guard the
// shard loops and the read router consult before paying for an entry or a
// routing scan.
func (g *Group) Active() bool { return g.active.Load() }

// Transports returns the number of attached transports.
func (g *Group) Transports() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.transports)
}

// Transport returns attached transport i (testing and failure hooks), or
// nil when out of range.
func (g *Group) Transport(i int) Transport {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i < 0 || i >= len(g.transports) {
		return nil
	}
	return g.transports[i]
}

// AppendBatch replicates a batch of log entries under a single lock
// acquisition and transport offer — the amortization that makes batched
// shard applies pay off on the replication path. Push transports are
// offered the batch directly, pull transports find it in the retained log.
// It must be called from the shard apply loop (the single appender) and
// never blocks — a push follower whose channel is full is detached, and
// pull followers are bounded by the retention cap, not by the leader.
// Entries are sequenced in slice order; the Seq fields are assigned here
// (callers leave them zero). The slice is copied — the copy is offered to
// every transport as shared read-only data — so the caller may reuse its
// buffer immediately.
//
// Heartbeats are neither sequenced nor retained: they carry only a
// watermark, so push transports get them with Seq 0 (the replica's
// position does not move) and pull followers receive the fresh watermark
// on their empty pull responses instead (ServePull). Keeping them out of
// the log means the retention cap counts real history — at the default
// 250µs heartbeat interval, retained heartbeats would dilute a
// 4096-entry cap to about one second of log and push every transient
// replica stall into snapshot catch-up. (Batches are all-data or a lone
// heartbeat in practice, but mixtures work.)
//
// It returns the sequence number assigned to the last non-heartbeat entry
// (the group's position after the batch; 0 from a closed or fenced group)
// — what a durable leader records so recovery can hand replicas the exact
// log position they resync from.
func (g *Group) AppendBatch(entries []Entry) uint64 {
	if len(entries) == 0 {
		return g.NextSeq()
	}
	es := make([]Entry, len(entries))
	copy(es, entries)
	g.mu.Lock()
	if g.closed || g.fenced {
		g.mu.Unlock()
		return 0
	}
	nData := 0
	for i := range es {
		es[i].Epoch = g.epoch
		if es[i].Watermark > g.lastWM {
			g.lastWM = es[i].Watermark
		}
		if es[i].Kind != EntryHeartbeat {
			g.nextSeq++
			es[i].Seq = g.nextSeq
			nData++
		}
	}
	for _, t := range g.transports {
		t.Offer(es)
	}
	if nData > 0 {
		if g.nPull > 0 || g.keepLog {
			if nData == len(es) {
				g.log = append(g.log, es...)
			} else {
				for i := range es {
					if es[i].Kind != EntryHeartbeat {
						g.log = append(g.log, es[i])
					}
				}
			}
			g.truncateLocked()
		} else {
			// No pull replicas: nothing to retain for. Keeping logStart
			// at nextSeq means a later joiner starts from a snapshot
			// instead of a gapped log.
			g.log = g.log[:0]
			g.dead = 0
			g.logStart = g.nextSeq
		}
	}
	seq := g.nextSeq
	if g.nPull > 0 {
		// Wake pull waiters (WaitEntriesAfter long-polls on appendC) for
		// data and heartbeats alike — a caught-up follower's watermark
		// freshness is bounded by this wake-up.
		close(g.appendC)
		g.appendC = make(chan struct{})
	}
	g.mu.Unlock()
	return seq
}

// Restore seats a recovered log suffix: the group resumes sequencing at
// nextSeq+1 with entries (positions nextSeq-len(entries)+1 .. nextSeq)
// retained for pull replicas, so a replica that outlived the leader's
// restart resyncs from the replayed log instead of being forced through
// a full snapshot. It also marks the log as kept: without it, the first
// post-restart append with no pull replica attached would wipe the
// restored suffix before any replica had the chance to re-register.
// Must be called before the shard loops start appending.
func (g *Group) Restore(entries []Entry, nextSeq uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	if len(entries) > g.retain {
		entries = entries[len(entries)-g.retain:]
	}
	g.log = append([]Entry(nil), entries...)
	g.dead = 0
	g.nextSeq = nextSeq
	g.logStart = nextSeq - uint64(len(entries))
	g.keepLog = true
	for i := range entries {
		if entries[i].Watermark > g.lastWM {
			g.lastWM = entries[i].Watermark
		}
	}
}

// truncateLocked drops retained entries no pull replica still needs: below
// the minimum acknowledged position of live pull transports, and in any
// case below nextSeq − retain (the hard cap — a replica that needs more
// re-syncs via snapshot). Callers hold g.mu.
func (g *Group) truncateLocked() {
	floor := g.nextSeq // with no live pull replica, keep nothing
	anyPull := false
	for _, t := range g.transports {
		if t.Pull() && t.Alive() && t.Routable() {
			anyPull = true
			if s := t.AckedSeq(); s < floor {
				floor = s
			}
		}
	}
	if !anyPull && g.keepLog {
		// A restored log with no replica attached yet: keep the suffix
		// (up to the hard cap) so a rejoining replica can pull it.
		floor = g.logStart
	}
	newStart := g.logStart
	if floor > newStart {
		newStart = floor
	}
	if g.nextSeq > uint64(g.retain) {
		if capStart := g.nextSeq - uint64(g.retain); capStart > newStart {
			newStart = capStart
		}
	}
	if drop := int(newStart - g.logStart); drop > 0 {
		g.log = g.log[drop:]
		g.logStart = newStart
		g.dead += drop
		// Compact once the dead prefix of the backing array outgrows the
		// cap, so the array stops growing behind the advancing window.
		if g.dead > g.retain {
			g.log = append([]Entry(nil), g.log...)
			g.dead = 0
		}
	}
}

// EntriesAfter returns up to max retained entries with positions above
// after. ok is false when after has been truncated away — the caller must
// catch up via snapshot. An empty batch with ok true means the follower is
// caught up.
func (g *Group) EntriesAfter(after uint64, max int) (es []Entry, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.entriesAfterLocked(after, max)
}

func (g *Group) entriesAfterLocked(after uint64, max int) ([]Entry, bool) {
	if after < g.logStart {
		return nil, false
	}
	if after > g.nextSeq {
		// The follower claims a position this log has never reached — it
		// outlived a leader restart. Treating it as caught up would hand
		// it fresh watermarks over a store missing every post-restart
		// commit; sending it through the snapshot path resyncs it.
		return nil, false
	}
	if after == g.nextSeq {
		return nil, true
	}
	i := int(after - g.logStart)
	n := len(g.log) - i
	if n > max {
		n = max
	}
	es := make([]Entry, n)
	copy(es, g.log[i:i+n])
	return es, true
}

// WaitEntriesAfter is EntriesAfter with a long-poll: when the follower is
// caught up it waits up to wait for the next append instead of returning
// an empty batch immediately, so pull loops are paced by the log, not by
// their own spin rate. An empty batch with ok true means the follower
// held the whole log at capture time; wm is the group's newest watermark,
// captured atomically with that emptiness, so the follower may apply it
// as a synthetic heartbeat — every commit at or below it was in the log
// the follower has fully applied.
func (g *Group) WaitEntriesAfter(after uint64, max int, wait time.Duration) (es []Entry, wm truetime.Timestamp, ok bool) {
	g.mu.Lock()
	es, ok = g.entriesAfterLocked(after, max)
	ch, closed := g.appendC, g.closed
	wm = g.lastWM
	g.mu.Unlock()
	if !ok || len(es) > 0 || closed {
		return es, wm, ok
	}
	// Caught up: park for the next append. One wake suffices either way —
	// a data append yields entries, a heartbeat append yields a fresher
	// watermark, and returning promptly on both is what keeps a
	// caught-up follower's advertised t_safe within the router's lag
	// budget (a loop-until-entries here would starve the watermark for
	// the whole long-poll).
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-ch:
	case <-timer.C:
		return nil, wm, true
	}
	g.mu.Lock()
	es, ok = g.entriesAfterLocked(after, max)
	wm = g.lastWM
	g.mu.Unlock()
	return es, wm, ok
}

// NextSeq returns the position of the last appended entry. Consistent with
// the log only when called from the appender (the shard apply loop), which
// is where snapshot cuts are taken.
func (g *Group) NextSeq() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.nextSeq
}

// Route returns a transport expected to serve a read at tread promptly:
// routable (alive, attached) with an acknowledged watermark within maxLag
// of tread (a healthy replica's ack trails t_read by at most a heartbeat
// interval plus apply latency, so the read's park will be short). Nil
// means the caller should serve at the leader. Selection rotates so read
// load spreads across eligible replicas.
func (g *Group) Route(tread, maxLag truetime.Timestamp) Transport {
	if !g.active.Load() {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	n := len(g.transports)
	if n == 0 {
		return nil
	}
	// Reduce before converting: a raw int() of the counter goes negative
	// on 32-bit platforms once it wraps, and Go's % keeps the sign.
	start := int(g.rr.Add(1) % uint64(n))
	for i := 0; i < n; i++ {
		t := g.transports[(start+i)%n]
		if t.Routable() && t.Acked() >= tread-maxLag {
			return t
		}
	}
	return nil
}

// TSafe returns the maximum acknowledged t_safe across live transports
// (0 with none), for stats and lag reporting.
func (g *Group) TSafe() truetime.Timestamp {
	g.mu.Lock()
	defer g.mu.Unlock()
	var max truetime.Timestamp
	for _, t := range g.transports {
		if t.Alive() {
			if a := t.Acked(); a > max {
				max = a
			}
		}
	}
	return max
}

// Close detaches and closes every transport and wakes pull waiters. The
// caller must guarantee no concurrent AppendBatch (the server stops shard loops
// first).
func (g *Group) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	ts := g.transports
	g.transports = nil
	g.nPull = 0
	g.active.Store(false)
	close(g.appendC)
	close(g.ackC)
	g.ackC = make(chan struct{})
	g.mu.Unlock()
	for _, t := range ts {
		t.Close()
	}
}
