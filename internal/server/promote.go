package server

import (
	"fmt"

	"rsskv/internal/mvstore"
	"rsskv/internal/replication"
	"rsskv/internal/truetime"
	"rsskv/internal/wal"
)

// Follower promotion: a replica that has been declared the new leader of a
// view hands its replicated per-shard state to OpenPromoted, which builds a
// serving kv server over it. The state was produced by the pull-based
// replication path (internal/replication), so the same invariants recovery
// leans on hold here: every version in the store was durable and
// acknowledged (or at least appended) at the old leader, and the replicated
// safe-time watermark bounds every commit the store may be missing.

// PromotedShard is one shard's state at promotion, extracted from the
// candidate replica after its pulls stopped and its applies drained
// (replication.Node.ExtractShard / RecentUpTo).
type PromotedShard struct {
	// Store is the shard's multi-version store, ownership transferred to
	// the new server (the fenced-off path copies instead; either way the
	// replica must not apply into it afterwards).
	Store *mvstore.Store
	// NextSeq is the replication log position the store reflects: the new
	// leader's group resumes sequencing after it, so sibling replicas
	// resync from their acknowledged positions without a snapshot.
	NextSeq uint64
	// Watermark is the replicated safe-time watermark the replica had
	// acknowledged: the new leader's timestamp floor. Every commit the old
	// leader assigned at or below it is in Store; commits above it may be
	// lost with the old leader, which is exactly why the new view's
	// timestamps must start above it (nextTS floors at maxTS).
	Watermark truetime.Timestamp
	// Recent is the contiguous log suffix ending at NextSeq the candidate
	// retained (possibly empty), seated as the new group's retained log so
	// lagging siblings can pull instead of snapshotting.
	Recent []replication.Entry
}

// OpenPromoted builds a server from a promoted follower's state. cfg.Epoch
// must be the new view's epoch (strictly above the deposed leader's);
// cfg.Shards must match the seed. The timestamp floor of each shard is
// max(seed watermark, newest store version) — the same flooring WAL
// recovery applies to a restarted leader — so no timestamp the old view
// may have assigned is ever reused. When cfg.DataDir is set it must be a
// fresh directory: each shard's log is created and an initial checkpoint
// capturing the seed is installed before serving, so a crash of the
// promoted leader recovers to at least its promotion state.
func OpenPromoted(cfg Config, seed []PromotedShard) (*Server, error) {
	if cfg.Shards == 0 {
		cfg.Shards = len(seed)
	}
	if cfg.Shards != len(seed) {
		return nil, fmt.Errorf("server: promotion seed has %d shards, config wants %d", len(seed), cfg.Shards)
	}
	if cfg.Epoch <= 1 {
		return nil, fmt.Errorf("server: promotion needs an epoch above the deposed view (got %d)", cfg.Epoch)
	}
	return open(cfg, seed)
}

// installSeed seats the promotion seed. It runs from open before the shard
// loops start, so it mutates shard state directly, exactly like recover.
func (srv *Server) installSeed(seed []PromotedShard) error {
	var maxTxn uint64
	for i, s := range srv.shards {
		ps := &seed[i]
		if ps.Store != nil {
			s.store = ps.Store
		}
		s.maxTS = ps.Watermark
		if m := s.store.MaxTSAll(); m > s.maxTS {
			s.maxTS = m
		}
		if s.repl != nil {
			s.repl.Restore(ps.Recent, ps.NextSeq)
		}
		for j := range ps.Recent {
			if id := ps.Recent[j].TxnID; id > maxTxn {
				maxTxn = id
			}
		}
		if srv.cfg.DataDir == "" {
			continue
		}
		l, rec, err := wal.Open(wal.Config{Dir: walDir(srv.cfg.DataDir, i)})
		if err != nil {
			return fmt.Errorf("server: promote shard %d: %w", i, err)
		}
		if rec.Checkpoint != nil || len(rec.Records) > 0 {
			l.Close()
			return fmt.Errorf("server: promote shard %d: data dir %s is not fresh", i, walDir(srv.cfg.DataDir, i))
		}
		s.wal = l
		// Initial checkpoint: the seed must be durable before the new view
		// serves, or a crash would recover an empty store under timestamps
		// the view has already handed out.
		cp := &wal.Checkpoint{
			LSN:       l.AppendedLSN(),
			Watermark: int64(s.maxTS),
			Seq:       ps.NextSeq,
		}
		cp.Vals = s.dump()
		if _, err := l.WriteCheckpoint(cp); err != nil {
			return fmt.Errorf("server: promote shard %d: checkpoint: %w", i, err)
		}
	}
	// Seed the sequencer above every transaction ID visible in the seed so
	// the new view never reissues an ID a surviving replica or client still
	// associates with the old one. (Recent is a bounded window; the epoch in
	// every stamped record keeps even a reissued older ID unambiguous.)
	if cur := srv.seq.Load(); int64(maxTxn) > cur {
		srv.seq.Store(int64(maxTxn))
	}
	return nil
}
