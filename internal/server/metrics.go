package server

import (
	"log"
	"time"

	"rsskv/internal/obs"
)

// serverMetrics is the kv server's observability surface: one obs.Registry
// answering OpMetrics, the per-stage latency histograms the coordinators
// record into, and the slow-op log. The counters the server already keeps
// in Stats are mirrored into the registry as CounterFuncs at snapshot time
// rather than double-tracked.
//
// Metric catalog (durations in nanoseconds unless noted):
//
//	txn.lock_wait       hist  lock phase: first Acquire to full grant
//	txn.prepare_commit  hist  prepare+apply: grant to last apply drained
//	txn.commit_wait     hist  commit wait: apply to response release
//	txn.total           hist  whole 2PC coordinator
//	txn.wounds          ctr   wound-wait victims across shard lock tables
//	ro.block_wait       hist  snapshot-read park on the blocking set B
//	ro.total            hist  whole RO coordinator
//	ro.floor_lag_us     gauge TT.now().latest − the read floor, µs: how far
//	                          the oldest in-flight snapshot read (or the
//	                          configuration's read lag) holds trimming back
//	ro.below_floor      ctr   snapshot reads that reached a store below its
//	                          floor while their coordinator still waited —
//	                          served at the leader, refused by a follower.
//	                          A tripwire: 0 while the floor is right
//	mvstore.versions    gauge versions held, summed over the shard stores
//	mvstore.trimmed     ctr   versions dropped by writes below the floor
//	apply.queue_depth   hist  shard apply channel depth at dequeue (count)
//	apply.batch_size    hist  closures per apply-loop drain (count)
//	repl.append_batch   hist  entries per replication AppendBatch (count)
//	net.batch_occupancy hist  responses per connection-writer flush (count)
//	repl.ack_lag_chan   hist  acked t_safe age, channel followers (sampled
//	                          every heartbeat per live transport)
//	repl.ack_lag_sock   hist  acked t_safe age, socket replicas (sampled)
//	repl.snapshot_bytes hist  catch-up snapshot payload size (bytes)
//	repl.snapshot_dur   hist  catch-up snapshot cut+encode duration
//	wal.fsync           hist  group-commit fsync duration (durable only)
//	wal.batch_bytes     hist  bytes per synced WAL batch (durable only)
//	wal.checkpoint_bytes hist checkpoint dump size (bytes)
//	wal.checkpoint_dur  hist  checkpoint write+install duration
//	wal.fsyncs          ctr   fsyncs paid, summed over shard logs
//	wal.bytes           ctr   log bytes synced, summed over shard logs
//	admission.queue_wait hist delay-queue park duration, admitted or not
//	                          (admission enabled only)
//	admission.rejects   ctr   operations refused by admission control
//	admission.delayed   ctr   operations that parked in a delay queue
//	admission.tokens    gauge bucket level summed over shard gates
//	view.epoch          gauge view epoch led (or the deposing epoch once
//	                          fenced)
//	view.fenced         ctr   view fencings applied (normally 0 or 1)
//	view.not_leader_rejects ctr serving requests refused after fencing
//	slow_ops            ctr   requests over Config.SlowOpThreshold
//	repl.safe_time_age_ns  gauge  freshest follower t_safe lag, max/shards
//	apply.queue_depth_now  gauge  apply channel depth summed over shards
type serverMetrics struct {
	reg *obs.Registry

	lockWait      *obs.Histogram
	prepareCommit *obs.Histogram
	commitWait    *obs.Histogram
	txnTotal      *obs.Histogram
	roBlockWait   *obs.Histogram
	roTotal       *obs.Histogram
	applyDepth    *obs.Histogram
	applyBatch    *obs.Histogram
	replBatch     *obs.Histogram
	batchOcc      *obs.Histogram
	ackLagChan    *obs.Histogram
	ackLagSock    *obs.Histogram
	snapBytes     *obs.Histogram
	snapDur       *obs.Histogram
	walFsync      *obs.Histogram
	walBatch      *obs.Histogram
	ckptBytes     *obs.Histogram
	ckptDur       *obs.Histogram
	admitWait     *obs.Histogram

	belowFloor obs.Counter // leader-served reads below the shard's floor

	slow *obs.SlowLog
}

func newServerMetrics(srv *Server) *serverMetrics {
	r := obs.NewRegistry("kv")
	logf := srv.cfg.SlowOpLogf
	if logf == nil {
		logf = log.Printf
	}
	m := &serverMetrics{
		reg:           r,
		lockWait:      r.Hist("txn.lock_wait"),
		prepareCommit: r.Hist("txn.prepare_commit"),
		commitWait:    r.Hist("txn.commit_wait"),
		txnTotal:      r.Hist("txn.total"),
		roBlockWait:   r.Hist("ro.block_wait"),
		roTotal:       r.Hist("ro.total"),
		applyDepth:    r.Hist("apply.queue_depth"),
		applyBatch:    r.Hist("apply.batch_size"),
		replBatch:     r.Hist("repl.append_batch"),
		batchOcc:      r.Hist("net.batch_occupancy"),
		ackLagChan:    r.Hist("repl.ack_lag_chan"),
		ackLagSock:    r.Hist("repl.ack_lag_sock"),
		snapBytes:     r.Hist("repl.snapshot_bytes"),
		snapDur:       r.Hist("repl.snapshot_dur"),
		walFsync:      r.Hist("wal.fsync"),
		walBatch:      r.Hist("wal.batch_bytes"),
		ckptBytes:     r.Hist("wal.checkpoint_bytes"),
		ckptDur:       r.Hist("wal.checkpoint_dur"),
		admitWait:     r.Hist("admission.queue_wait"),
		slow:          obs.NewSlowLog(srv.cfg.SlowOpThreshold, logf),
	}
	st := &srv.stats
	r.CounterFunc("gets", st.Gets.Load)
	r.CounterFunc("puts", st.Puts.Load)
	r.CounterFunc("commits", st.Commits.Load)
	r.CounterFunc("aborts", st.Aborts.Load)
	r.CounterFunc("fences", st.Fences.Load)
	r.CounterFunc("conns", st.Conns.Load)
	r.CounterFunc("ro.txns", st.ROs.Load)
	r.CounterFunc("ro.blocked", st.ROBlocked.Load)
	r.CounterFunc("ro.skips", st.ROSkips.Load)
	r.CounterFunc("ro.follower", st.ROFollower.Load)
	r.CounterFunc("ro.follower_chan", st.ROFollowerChan.Load)
	r.CounterFunc("ro.follower_sock", st.ROFollowerSock.Load)
	r.CounterFunc("ro.fallback", st.ROFallback.Load)
	r.CounterFunc("replica.joins", st.ReplicaJoins.Load)
	r.CounterFunc("repl.snapshots", st.ReplSnapshots.Load)
	r.Gauge("ro.floor_lag_us", func() int64 {
		return int64(srv.clock.Since(srv.reads.floor()) / time.Microsecond)
	})
	r.CounterFunc("ro.below_floor", func() int64 {
		n := m.belowFloor.Load()
		for _, s := range srv.shards {
			if s.repl != nil {
				n += s.repl.BelowFloor()
			}
		}
		return n
	})
	r.Gauge("mvstore.versions", func() int64 {
		var n int64
		for _, s := range srv.shards {
			n += s.versions.Load()
		}
		return n
	})
	r.CounterFunc("mvstore.trimmed", func() int64 {
		var n int64
		for _, s := range srv.shards {
			n += s.trimmed.Load()
		}
		return n
	})
	r.CounterFunc("txn.wounds", func() int64 {
		var n int64
		for _, s := range srv.shards {
			n += s.lm.Wounds()
		}
		return n
	})
	r.CounterFunc("wal.fsyncs", func() int64 {
		var n int64
		for _, s := range srv.shards {
			if s.wal != nil {
				n += int64(s.wal.Fsyncs())
			}
		}
		return n
	})
	r.CounterFunc("wal.bytes", func() int64 {
		var n int64
		for _, s := range srv.shards {
			if s.wal != nil {
				n += int64(s.wal.Bytes())
			}
		}
		return n
	})
	r.CounterFunc("admission.rejects", st.AdmitRejects.Load)
	r.CounterFunc("admission.delayed", st.AdmitDelayed.Load)
	if srv.admitting {
		r.Gauge("admission.tokens", func() int64 {
			var n int64
			for _, s := range srv.shards {
				n += s.gate.tokenLevel()
			}
			return n
		})
	}
	r.CounterFunc("view.fenced", st.Fenced.Load)
	r.CounterFunc("view.not_leader_rejects", st.NotLeaderRejects.Load)
	r.Gauge("view.epoch", func() int64 {
		if e := srv.fencedEpoch.Load(); e != 0 {
			return int64(e)
		}
		return int64(srv.cfg.Epoch)
	})
	r.CounterFunc("slow_ops", m.slow.Slow)
	r.Gauge("repl.safe_time_age_ns", func() int64 { return int64(srv.ReplicationLag()) })
	r.Gauge("apply.queue_depth_now", func() int64 {
		var n int64
		for _, s := range srv.shards {
			n += int64(len(s.ch))
		}
		return n
	})
	return m
}

// sampleReplication records every live transport's acknowledged-watermark
// age, split by transport kind. Called once per heartbeat tick, so the
// histograms are uniform-in-time samples of follower staleness rather than
// per-ack event streams (which would weight chatty replicas).
func (m *serverMetrics) sampleReplication(srv *Server) {
	for _, s := range srv.shards {
		if s.repl == nil || !s.repl.Active() {
			continue
		}
		for i := 0; ; i++ {
			f := s.repl.Transport(i)
			if f == nil {
				break
			}
			if !f.Routable() {
				continue
			}
			w := f.Acked()
			if w <= 0 {
				continue // nothing acked yet; age would be since-epoch noise
			}
			lag := int64(srv.clock.Since(w))
			if f.Kind() == "sock" {
				m.ackLagSock.Observe(lag)
			} else {
				m.ackLagChan.Observe(lag)
			}
		}
	}
}
