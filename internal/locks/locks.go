// Package locks implements strict two-phase locking with wound-wait
// deadlock avoidance, the concurrency control used by Spanner's read-write
// transactions ([15], [79], §5 of the paper).
//
// Transactions carry a priority — their start timestamp; smaller is older.
// On conflict, an older requester wounds (aborts) younger holders, while a
// younger requester waits. Holders that have prepared (two-phase commit's
// prepared state) cannot be wounded; requesters wait for them regardless of
// age. Wound-wait admits no deadlock: a transaction only ever waits for
// older transactions, so the wait-for graph is acyclic.
package locks

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// TxnID identifies a transaction.
type TxnID struct {
	Client uint32
	Seq    uint64
}

func (t TxnID) String() string { return fmt.Sprintf("t%d.%d", t.Client, t.Seq) }

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

// Outcome is the result of an Acquire call.
type Outcome int

// Acquire outcomes.
const (
	// Granted: the lock is held on return.
	Granted Outcome = iota
	// Waiting: the request is queued; Manager.OnGrant fires from a later
	// Flush once the lock is acquired.
	Waiting
)

// Request is a lock acquisition.
type Request struct {
	Txn  TxnID
	Key  string
	Mode Mode
	// Prio is the transaction's wound-wait priority (its start
	// timestamp); smaller values are older and win conflicts.
	Prio int64
}

type holder struct {
	txn  TxnID
	mode Mode
	prio int64
}

type lockState struct {
	holders []holder
	queue   []Request
}

// dequeue removes queue[i] in place: the backing array is kept for the
// state's next life and the vacated slot is zeroed, so an idle array never
// pins a request's key.
func (ls *lockState) dequeue(i int) {
	last := len(ls.queue) - 1
	copy(ls.queue[i:], ls.queue[i+1:])
	ls.queue[last] = Request{}
	ls.queue = ls.queue[:last]
}

// Manager is a lock table for one shard. It is single-threaded (driven by
// the shard's event handler), which is why its free lists need no locking.
type Manager struct {
	locks map[string]*lockState
	held  map[TxnID][]string // keys each txn holds (for release)
	// queued are the keys each txn has a request queued on, so ReleaseAll
	// visits those instead of the whole table. An entry can be stale (the
	// request was granted or dropped since); release re-checks the queue.
	queued   map[TxnID][]string
	prepared map[TxnID]bool
	wounded  map[TxnID]bool

	// A steady-state acquire/release cycle allocates nothing: lock states
	// and the per-transaction key slices of held and queued are recycled
	// here, and ReleaseAll collects the keys it touched in a scratch slice.
	freeStates []*lockState
	freeKeys   [][]string
	touched    []string

	// OnGrant is invoked from Flush when a previously Waiting request
	// acquires its lock. It may issue further Acquire/Release calls.
	OnGrant func(Request)
	// OnWound is invoked from Flush at most once per transaction when it
	// is wounded by an older requester. The transaction's locks remain
	// held until ReleaseAll; the owner must abort it and release.
	OnWound func(TxnID)

	// Flush consumes both queues from their heads (nextGrant, nextWound)
	// while callbacks append to their tails, and rewinds them once drained.
	pendingGrants []Request
	pendingWounds []TxnID
	nextGrant     int
	nextWound     int
	flushing      bool

	// wounds counts wound-wait victims cumulatively. It is the one
	// atomic in the otherwise single-threaded table: metrics snapshots
	// read it from outside the shard loop.
	wounds atomic.Int64
}

// NewManager returns an empty lock table.
func NewManager() *Manager {
	return &Manager{
		locks:    make(map[string]*lockState),
		held:     make(map[TxnID][]string),
		queued:   make(map[TxnID][]string),
		prepared: make(map[TxnID]bool),
		wounded:  make(map[TxnID]bool),
	}
}

// Wounded reports whether txn has been wounded and not yet released.
func (m *Manager) Wounded(txn TxnID) bool { return m.wounded[txn] }

// Wounds returns how many transactions this table has wounded (safe from
// any goroutine; everything else on the Manager is loop-only).
func (m *Manager) Wounds() int64 { return m.wounds.Load() }

// HoldsAll reports whether txn currently holds locks covering all keys
// (prepare-time read-lock validation).
func (m *Manager) HoldsAll(txn TxnID, keys []string) bool {
	if m.wounded[txn] {
		return false
	}
	for _, k := range keys {
		if !m.holds(txn, k) {
			return false
		}
	}
	return true
}

func (m *Manager) holds(txn TxnID, key string) bool {
	ls := m.locks[key]
	if ls == nil {
		return false
	}
	for _, h := range ls.holders {
		if h.txn == txn {
			return true
		}
	}
	return false
}

// SetPrepared marks txn as prepared: it can no longer be wounded.
func (m *Manager) SetPrepared(txn TxnID) { m.prepared[txn] = true }

// Acquire requests a lock. It returns Granted if the lock is held on
// return, or Waiting if queued. Wounds triggered by this request are
// queued and delivered on the next Flush.
func (m *Manager) Acquire(req Request) Outcome {
	ls := m.locks[req.Key]
	if ls == nil {
		if n := len(m.freeStates); n > 0 {
			ls, m.freeStates = m.freeStates[n-1], m.freeStates[:n-1]
		} else {
			ls = &lockState{}
		}
		m.locks[req.Key] = ls
	}
	// Re-entrant and upgrade handling.
	for i, h := range ls.holders {
		if h.txn != req.Txn {
			continue
		}
		if h.mode == Exclusive || req.Mode == Shared {
			return Granted // already covered
		}
		// Upgrade shared→exclusive: treat other holders as conflicts.
		if len(ls.holders) == 1 {
			ls.holders[i].mode = Exclusive
			return Granted
		}
		return m.conflict(ls, req)
	}
	if m.compatible(ls, req) {
		m.grant(ls, req)
		return Granted
	}
	return m.conflict(ls, req)
}

// compatible reports whether req can be granted immediately. To prevent
// starvation of queued exclusive requests, a shared request is only
// compatible if no conflicting request is queued ahead of it.
func (m *Manager) compatible(ls *lockState, req Request) bool {
	if len(ls.holders) == 0 {
		return len(ls.queue) == 0
	}
	if req.Mode == Exclusive {
		return false
	}
	for _, h := range ls.holders {
		if h.mode == Exclusive {
			return false
		}
	}
	for _, q := range ls.queue {
		if q.Mode == Exclusive {
			return false
		}
	}
	return true
}

func (m *Manager) grant(ls *lockState, req Request) {
	ls.holders = append(ls.holders, holder{txn: req.Txn, mode: req.Mode, prio: req.Prio})
	m.note(m.held, req.Txn, req.Key)
}

// note records key under txn in idx (held or queued), starting a
// transaction's slice from a recycled one.
func (m *Manager) note(idx map[TxnID][]string, txn TxnID, key string) {
	ks, ok := idx[txn]
	if n := len(m.freeKeys); !ok && n > 0 {
		ks, m.freeKeys = m.freeKeys[n-1], m.freeKeys[:n-1]
	}
	idx[txn] = append(ks, key)
}

// take removes and returns txn's keys from idx. The caller hands the slice
// back through recycle when it is done reading it.
func (m *Manager) take(idx map[TxnID][]string, txn TxnID) []string {
	ks := idx[txn]
	delete(idx, txn)
	return ks
}

func (m *Manager) recycle(ks []string) {
	if cap(ks) == 0 {
		return
	}
	// Safe to reuse: take removed the slice from its index, the only place
	// that referred to it (HeldKeys hands out copies). Cleared so the idle
	// slice pins no key.
	clear(ks)
	m.freeKeys = append(m.freeKeys, ks[:0])
}

// conflict applies wound-wait: wound all younger, unprepared conflicting
// holders and queue the request.
func (m *Manager) conflict(ls *lockState, req Request) Outcome {
	for _, h := range ls.holders {
		if h.txn == req.Txn {
			continue // upgrade in progress; other holders conflict
		}
		conflicts := req.Mode == Exclusive || h.mode == Exclusive
		if !conflicts {
			continue
		}
		if h.prio > req.Prio && !m.prepared[h.txn] && !m.wounded[h.txn] {
			m.wounded[h.txn] = true
			m.pendingWounds = append(m.pendingWounds, h.txn)
			m.wounds.Add(1)
		}
	}
	m.enqueue(ls, req)
	// Enqueueing by priority can change the head of the queue: a shared
	// request that compatible() refused because an exclusive was queued
	// may itself land AHEAD of that exclusive, leaving an admissible head
	// with no future release to promote it — a missed wakeup that parks
	// the (older) request forever and deadlocks wound-wait, which relies
	// on older transactions always making progress. Re-promote now; the
	// grant, if any, is delivered through the normal Flush path.
	m.promote(req.Key)
	return Waiting
}

// Flush delivers queued OnWound and OnGrant callbacks until none remain.
// Callbacks may call back into the manager (ReleaseAll, Acquire); newly
// produced events are delivered in the same Flush. Wounds are delivered
// before grants so victims release promptly. Call Flush after any sequence
// of Acquire/ReleaseAll/SetPrepared calls.
func (m *Manager) Flush() {
	if m.flushing {
		return // the outer Flush drains everything
	}
	m.flushing = true
	for m.nextWound < len(m.pendingWounds) || m.nextGrant < len(m.pendingGrants) {
		if m.nextWound < len(m.pendingWounds) {
			t := m.pendingWounds[m.nextWound]
			m.nextWound++
			if m.OnWound != nil {
				m.OnWound(t)
			}
			continue
		}
		g := m.pendingGrants[m.nextGrant]
		m.pendingGrants[m.nextGrant] = Request{} // delivered: don't pin its key
		m.nextGrant++
		if m.wounded[g.Txn] {
			continue // wounded after being granted; owner will release
		}
		if m.OnGrant != nil {
			m.OnGrant(g)
		}
	}
	m.pendingWounds, m.nextWound = m.pendingWounds[:0], 0
	m.pendingGrants, m.nextGrant = m.pendingGrants[:0], 0
	m.flushing = false
}

// enqueue inserts req into the wait queue ordered by priority (older
// first), FIFO among equals.
func (m *Manager) enqueue(ls *lockState, req Request) {
	i := sort.Search(len(ls.queue), func(i int) bool { return ls.queue[i].Prio > req.Prio })
	ls.queue = append(ls.queue, Request{})
	copy(ls.queue[i+1:], ls.queue[i:])
	ls.queue[i] = req
	m.note(m.queued, req.Txn, req.Key)
}

// ReleaseAll releases every lock txn holds, removes its queued requests,
// and grants any newly admissible waiters (via OnGrant).
func (m *Manager) ReleaseAll(txn TxnID) {
	held, queued := m.take(m.held, txn), m.take(m.queued, txn)
	delete(m.prepared, txn)
	delete(m.wounded, txn)
	touched := m.touched[:0]
	for _, k := range held {
		ls := m.locks[k]
		for i := 0; i < len(ls.holders); {
			if ls.holders[i].txn == txn {
				ls.holders = append(ls.holders[:i], ls.holders[i+1:]...)
			} else {
				i++
			}
		}
		touched = append(touched, k)
	}
	// Drop txn's still-queued requests (aborted while waiting).
	for _, k := range queued {
		ls := m.locks[k]
		if ls == nil {
			continue // granted and released since
		}
		for i := 0; i < len(ls.queue); {
			if ls.queue[i].Txn == txn {
				ls.dequeue(i)
			} else {
				i++
			}
		}
		touched = append(touched, k)
	}
	// Promote in sorted key order, for determinism. A key both held and
	// queued on (an upgrade) appears twice; the second promote finds
	// nothing left to do.
	slices.Sort(touched)
	for _, k := range touched {
		m.promote(k)
	}
	clear(touched)
	m.touched = touched[:0]
	m.recycle(held)
	m.recycle(queued)
}

func (m *Manager) promote(key string) {
	ls := m.locks[key]
	if ls == nil {
		return
	}
	for len(ls.queue) > 0 {
		req := ls.queue[0]
		if m.wounded[req.Txn] {
			ls.dequeue(0)
			continue
		}
		admissible := false
		if len(ls.holders) == 0 {
			admissible = true
		} else if req.Mode == Shared {
			admissible = true
			for _, h := range ls.holders {
				if h.mode == Exclusive {
					admissible = false
				}
			}
		} else if len(ls.holders) == 1 && ls.holders[0].txn == req.Txn {
			// Upgrade completes once other holders drained.
			ls.holders[0].mode = Exclusive
			ls.dequeue(0)
			m.pendingGrants = append(m.pendingGrants, req)
			continue
		}
		if !admissible {
			return
		}
		ls.dequeue(0)
		m.grant(ls, req)
		m.pendingGrants = append(m.pendingGrants, req)
	}
	if len(ls.holders) == 0 && len(ls.queue) == 0 {
		// Safe to reuse: the table was the only reference to ls, and an
		// empty state has no holder or queued request pointing back at it.
		// dequeue zeroed every queue slot it vacated.
		delete(m.locks, key)
		m.freeStates = append(m.freeStates, ls)
	}
}

// QueueLen returns the number of waiters on key (testing and metrics).
func (m *Manager) QueueLen(key string) int {
	if ls := m.locks[key]; ls != nil {
		return len(ls.queue)
	}
	return 0
}

// HeldKeys returns a copy of the keys txn holds (testing).
func (m *Manager) HeldKeys(txn TxnID) []string {
	out := append([]string(nil), m.held[txn]...)
	sort.Strings(out)
	return out
}

// DebugDump prints the lock table through printf (diagnostics).
func (m *Manager) DebugDump(printf func(format string, args ...any)) {
	for k, ls := range m.locks {
		printf("key %q:", k)
		for _, h := range ls.holders {
			printf("  holder %v mode=%d prio=%d prepared=%v wounded=%v", h.txn, h.mode, h.prio, m.prepared[h.txn], m.wounded[h.txn])
		}
		for _, q := range ls.queue {
			printf("  queued %v mode=%d prio=%d wounded=%v", q.Txn, q.Mode, q.Prio, m.wounded[q.Txn])
		}
	}
	printf("pendingGrants=%d pendingWounds=%d", len(m.pendingGrants), len(m.pendingWounds))
}
