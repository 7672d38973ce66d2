package server

import (
	"fmt"
	"strings"
	"time"

	"rsskv/internal/replication"
	"rsskv/internal/truetime"
	"rsskv/internal/wire"
)

// This file is the leader side of out-of-process replication (Config.
// AllowReplicaJoin): the registry of joined replica processes and the
// handlers for the three follower-driven opcodes. A replica process
// (rsskvd -mode=replica, replication.Node) identifies itself by the read
// address it advertises (Request.Key) plus a per-boot nonce
// (Request.Value); its first pull registers it — the server dials back to
// the address, builds one SockTransport per shard, and attaches them to
// the shard groups, after which the read router treats the replica
// exactly like an in-process follower. A returning address with a fresh
// nonce is a restarted process: the stale transports are detached and
// replaced, which is what lets a replica that fell behind leader-side log
// truncation rejoin through the snapshot path.

// replicaReg is one joined replica process: its boot nonce and its
// per-shard transports (indexed by shard id).
type replicaReg struct {
	nonce      string
	transports []*replication.SockTransport
}

// registerReplica resolves (or creates) the registration for a replica
// identified by its advertised address and boot nonce. Dial-back happens
// outside the registry lock, so a slow or dead replica address cannot
// stall other replicas' messages.
func (srv *Server) registerReplica(addr, nonce string) (*replicaReg, error) {
	if addr == "" {
		return nil, fmt.Errorf("replica advertised no read address")
	}
	srv.replMu.Lock()
	if reg := srv.replicas[addr]; reg != nil && reg.nonce == nonce {
		srv.replMu.Unlock()
		return reg, nil
	}
	srv.replMu.Unlock()

	// A new registration outlives the message that carried its address.
	addr = strings.Clone(addr)
	fresh := make([]*replication.SockTransport, len(srv.shards))
	for i := range srv.shards {
		t, err := replication.NewSockTransport(i, addr, srv.cfg.MaxFrame)
		if err != nil {
			for _, built := range fresh[:i] {
				built.Close()
			}
			return nil, fmt.Errorf("dial back to replica %s: %v", addr, err)
		}
		fresh[i] = t
	}

	srv.replMu.Lock()
	if cur := srv.replicas[addr]; cur != nil {
		if cur.nonce == nonce {
			// A concurrent message won the registration race; keep theirs.
			srv.replMu.Unlock()
			for _, t := range fresh {
				t.Close()
			}
			return cur, nil
		}
		// Same address, new boot: the old process is gone. Detach and
		// close its transports; the fresh ones take over (and, having
		// acknowledged nothing yet, start from the snapshot path if the
		// log has moved on).
		for i, t := range cur.transports {
			srv.shards[i].repl.Detach(t)
			t.Close()
		}
	}
	reg := &replicaReg{nonce: nonce, transports: fresh}
	srv.replicas[addr] = reg
	// Attach under replMu so a racing re-registration for the same
	// address cannot interleave its detach between our publish and our
	// attach and leave closed transports in the groups. Lock order is
	// replMu → group mu; nothing takes them in reverse.
	for i, t := range fresh {
		srv.shards[i].repl.Attach(t)
	}
	srv.replMu.Unlock()
	srv.stats.ReplicaJoins.Add(1)
	return reg, nil
}

// reapDeadReplicas evicts replica processes whose acknowledgments have
// been silent past the eviction window: their transports are detached and
// closed, so dead replicas (including ones that restarted under a
// different ephemeral address and can never re-register the old identity)
// stop being scanned by the router and stop pinning log truncation at
// the retention cap. Called periodically from the heartbeat loop. A
// replica evicted while merely slow re-registers on its next pull and
// catches up via snapshot.
func (srv *Server) reapDeadReplicas() {
	cutoff := time.Now().Add(-srv.cfg.ReplicaEvictAfter).UnixNano()
	srv.replMu.Lock()
	defer srv.replMu.Unlock()
	for addr, reg := range srv.replicas {
		silent := true
		for _, t := range reg.transports {
			if t.LastAck() > cutoff {
				silent = false
				break
			}
		}
		if !silent {
			continue
		}
		delete(srv.replicas, addr)
		for i, t := range reg.transports {
			srv.shards[i].repl.Detach(t)
			t.Close()
		}
	}
}

// replShard validates a replication request's shard and that joins are
// enabled, returning the shard.
func (srv *Server) replShard(req *wire.Request, cw *connWriter) (*shard, bool) {
	if !srv.cfg.AllowReplicaJoin {
		cw.Send(&wire.Response{ID: req.ID, Op: req.Op, Err: "replica joins disabled"})
		return nil, false
	}
	i := int(req.TxnID)
	if i < 0 || i >= len(srv.shards) {
		cw.Send(&wire.Response{ID: req.ID, Op: req.Op,
			Err: fmt.Sprintf("shard %d out of range (%d shards)", i, len(srv.shards))})
		return nil, false
	}
	return srv.shards[i], true
}

// replPull serves one OpReplEntry: register (first contact dials back),
// then answer from the shard's retained log, long-polling when the
// follower is caught up. The response's TxnID carries the shard count so
// a joining node discovers the topology from its first pull.
func (srv *Server) replPull(req *wire.Request, cw *connWriter) {
	s, ok := srv.replShard(req, cw)
	if !ok {
		return
	}
	if _, err := srv.registerReplica(req.Key, req.Value); err != nil {
		cw.Send(&wire.Response{ID: req.ID, Op: req.Op, Err: err.Error()})
		return
	}
	cw.Send(s.repl.ServePull(req, len(srv.shards)))
}

// replAck folds one OpReplAck into the replica's leader-side transport.
// Acks from an unknown or stale boot are dropped (not an error a replica
// can act on): a restarted process re-registers through its pulls first.
func (srv *Server) replAck(req *wire.Request, cw *connWriter) {
	if _, ok := srv.replShard(req, cw); !ok {
		return
	}
	srv.replMu.Lock()
	reg := srv.replicas[req.Key]
	if reg != nil && reg.nonce != req.Value {
		reg = nil
	}
	srv.replMu.Unlock()
	if reg != nil {
		reg.transports[req.TxnID].RecordAck(req.Seq, truetime.Timestamp(req.TMin))
		// Wake any flush parked in WaitAcked (Config.SyncRepl): the ack was
		// folded into the transport outside the group, so the group's own
		// ack broadcast never fired.
		srv.shards[req.TxnID].repl.NoteAck()
	}
	cw.Send(&wire.Response{ID: req.ID, Op: req.Op, OK: reg != nil})
}

// replSnapshot serves one OpReplSnapshot: a consistent catch-up snapshot
// cut on the shard apply loop — the full multi-version store, the log
// position it reflects, and the safe-time watermark, all taken in one
// loop closure so replaying entries after the position re-derives
// everything later. Shipping every version the store holds (not just the
// newest) is what keeps reads at the follower exact after a snapshot
// install, at every timestamp a read can still have: at or above the
// leader's read floor.
func (srv *Server) replSnapshot(req *wire.Request, cw *connWriter) {
	s, ok := srv.replShard(req, cw)
	if !ok {
		return
	}
	if _, err := srv.registerReplica(req.Key, req.Value); err != nil {
		cw.Send(&wire.Response{ID: req.ID, Op: req.Op, Err: err.Error()})
		return
	}
	type snapCut struct {
		vals []wire.ReplVal
		seq  uint64
		w    truetime.Timestamp
	}
	ch := make(chan snapCut, 1)
	submitted := s.run(func() {
		// Flush the in-progress apply batch first: its writes are already
		// in the store, so the cut's log position must cover its entries
		// or replay-after-seq would re-apply (or worse, gap past) them.
		// The whole flush, sync included, so the cut never hands a replica
		// state the leader hasn't made durable yet.
		s.flush()
		ch <- snapCut{vals: s.dump(), seq: s.repl.NextSeq(), w: s.safeWatermark()}
	})
	if !submitted {
		cw.Send(&wire.Response{ID: req.ID, Op: req.Op, Err: errClosed.Error()})
		return
	}
	start := time.Now()
	select {
	case cut := <-ch:
		srv.stats.ReplSnapshots.Add(1)
		resp := replication.SnapshotResponse(req, cut.vals, cut.seq, cut.w, len(srv.shards))
		srv.metrics.snapDur.ObserveSince(start)
		srv.metrics.snapBytes.Observe(int64(len(resp.Value)))
		cw.Send(resp)
	case <-srv.quit:
		cw.Send(&wire.Response{ID: req.ID, Op: req.Op, Err: errClosed.Error()})
	}
}
