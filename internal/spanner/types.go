// Package spanner implements the Spanner transactional key-value store
// (Corbett et al. [22]) and the paper's Spanner-RSS variant (§5–§6).
//
// Spanner shards a multi-versioned key space across replication groups.
// Read-write (RW) transactions use strict two-phase locking with wound-wait
// and a TrueTime-timestamped two-phase commit; commit wait guarantees every
// commit timestamp lies between the transaction's real start and end times,
// which yields strict serializability. Read-only (RO) transactions read a
// snapshot at t_read = TT.now().latest in one round, but must block when a
// conflicting transaction is prepared with t_p ≤ t_read.
//
// Spanner-RSS (Algorithms 1–2 of the paper) relaxes RO transactions to
// regular sequential serializability: a shard may skip a prepared
// transaction unless a causal constraint requires observing it
// (t_p ≤ t_min) or it could have finished before the RO began
// (t_ee ≤ t_read). Clients verify the returned values form a consistent
// snapshot at t_snap and only wait for the commit outcomes that could
// invalidate it. Both optimizations from §6 are implemented: skipped
// writes returned in the fast path, and t_ee advancement when transactions
// block in wound-wait.
package spanner

import (
	"fmt"

	"rsskv/internal/locks"
	"rsskv/internal/sim"
	"rsskv/internal/truetime"
)

// TxnID identifies a transaction; it is shared with the lock manager.
type TxnID = locks.TxnID

// Mode selects the RO transaction protocol.
type Mode int

const (
	// ModeStrict is baseline Spanner: strictly serializable RO
	// transactions that block on conflicting prepared transactions.
	ModeStrict Mode = iota
	// ModeRSS is Spanner-RSS: RO transactions skip prepared transactions
	// when RSS allows, per Algorithms 1–2.
	ModeRSS
	// ModePO is an ablation providing only process-ordered
	// serializability: RO transactions read at the client's own t_min
	// rather than TT.now().latest, never blocking but possibly returning
	// stale snapshots that violate real-time (and cross-service causal)
	// constraints. It demonstrates the invariant violations of §2.5.
	ModePO
)

func (m Mode) String() string {
	switch m {
	case ModeStrict:
		return "spanner"
	case ModeRSS:
		return "spanner-rss"
	case ModePO:
		return "spanner-po"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// KV is a key-value pair in a transaction's write set.
type KV struct {
	Key   string
	Value string
}

// VersionedKV is a value with its commit timestamp.
type VersionedKV struct {
	Key   string
	Value string
	TC    truetime.Timestamp
}

// Config parameterizes a Spanner cluster.
type Config struct {
	// Mode selects baseline Spanner, Spanner-RSS, or the PO ablation.
	Mode Mode
	// NumShards is the number of shards (replication groups).
	NumShards int
	// LeaderRegions[i] places shard i's leader; replicas are placed in
	// the remaining regions per ReplicaRegions.
	LeaderRegions []sim.RegionID
	// ReplicaRegions[i] lists the acceptor regions for shard i (the
	// paper: "the replicas are in the other two data centers").
	ReplicaRegions [][]sim.RegionID
	// Epsilon is the emulated TrueTime uncertainty (10 ms in §6.1, 0 in
	// §6.2).
	Epsilon sim.Time
	// ProcTime is the per-message CPU cost at shard leaders and
	// acceptors, for the saturation experiments.
	ProcTime sim.Time
	// PrepareDeadlock is how long a prepare may wait for write locks
	// before the shard votes abort, breaking the rare cross-shard
	// prepared-prepared deadlock that wound-wait cannot (prepared holders
	// are wound-immune). Default 1s.
	PrepareDeadlock sim.Time
	// MaxCommitLag is L from §5.1: an upper bound on t_c - t_ee across
	// all RW transactions, used by real-time fences. The default derives
	// from the topology: the maximum commit latency estimate plus the
	// TrueTime uncertainty.
	MaxCommitLag sim.Time
	// POStaleness is the replication lag the ModePO ablation assumes:
	// its read-only transactions read a consistent snapshot this far
	// behind real time, modeling lazy replication [24]. Defaults to
	// twice MaxCommitLag.
	POStaleness sim.Time
	// DisableOpt1 turns off §6's first optimization: returning a skipped
	// prepared transaction's buffered writes in the RO fast path. With
	// it off, clients always need the slow reply's values. Ablation only.
	DisableOpt1 bool
	// DisableOpt2 turns off §6's second optimization: advancing t_ee by
	// the time a transaction blocked in wound-wait. With it off, lock
	// contention makes t_ee estimates stale and forces more RO blocking.
	// Ablation only.
	DisableOpt2 bool
	// GCInterval, if positive, makes each shard periodically raise its
	// store's floor to now − GCWindow, so writes drop the versions below
	// it, bounding memory in long runs.
	GCInterval sim.Time
	// GCWindow is how much history GC retains (default 10 s).
	GCWindow sim.Time
}

func (c *Config) prepareDeadlock() sim.Time {
	if c.PrepareDeadlock > 0 {
		return c.PrepareDeadlock
	}
	return sim.Second
}
