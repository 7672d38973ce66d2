package main

import (
	"sort"

	"rsskv/internal/obs"
	"rsskv/internal/wire"
)

// scraped is the difference between two reads of the server's metrics
// registry over kvclient.ScrapeMetrics: what the server itself counted
// during the traced window. total keeps the later read whole, for the
// figures that only exist since the server started (checkpoints happen
// during the preload, not the window). Nothing is added inside the
// program to produce these.
type scraped struct {
	counters map[string]int64
	hists    map[string]wire.MetricHist
	total    *wire.MetricsPayload
}

func scrapeDelta(before, after *wire.MetricsPayload) *scraped {
	s := &scraped{counters: map[string]int64{}, hists: map[string]wire.MetricHist{}, total: after}
	for _, c := range after.Counters {
		s.counters[c.Name] = c.Value - obs.FindCounter(before, c.Name)
	}
	for _, h := range after.Hists {
		b, _ := obs.FindHist(before, h.Name)
		s.hists[h.Name] = histDelta(h, b)
	}
	return s
}

// histDelta subtracts an earlier snapshot of a histogram from a later one,
// bucket by bucket.
func histDelta(after, before wire.MetricHist) wire.MetricHist {
	old := map[uint32]uint64{}
	for _, b := range before.Buckets {
		old[b.Idx] = b.N
	}
	d := wire.MetricHist{Name: after.Name, Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	for _, b := range after.Buckets {
		if n := b.N - old[b.Idx]; n > 0 {
			d.Buckets = append(d.Buckets, wire.MetricBucket{Idx: b.Idx, N: n})
		}
	}
	sort.Slice(d.Buckets, func(i, j int) bool { return d.Buckets[i].Idx < d.Buckets[j].Idx })
	return d
}

// us returns the q-quantile of a nanosecond histogram in microseconds.
func (s *scraped) us(name string, q float64) float64 {
	return float64(obs.HistQuantile(s.hists[name], q)) / 1e3
}

func (s *scraped) mean(name string) float64 { return obs.HistMean(s.hists[name]) }

func (s *scraped) quantile(name string, q float64) float64 {
	return float64(obs.HistQuantile(s.hists[name], q))
}

// serverMetrics fills in the per-layer metrics whose source is the
// server's own registry (the S rows of the table in README.md). win is
// the traced window the two scrapes bracket; roP50 and rwP50 are its
// client-observed medians in microseconds.
func serverMetrics(m metrics, s *scraped, win *window, roP50, rwP50 float64) {
	t := win.totals()
	ops, writes := t.ops, t.writes
	ros, commits := float64(s.counters["ro.txns"]), float64(s.counters["commits"])

	m.set("netio.frames_per_flush", s.mean("net.batch_occupancy"), "count")
	m.set("kvclient.overhead_us", roP50-s.us("ro.total", 0.5), "us")
	m.set("kvclient.rw_overhead_us", rwP50-s.us("txn.total", 0.5), "us")

	m.set("apply.batch_size_mean", s.mean("apply.batch_size"), "count")
	m.set("apply.queue_depth_p99", s.quantile("apply.queue_depth", 0.99), "count")

	m.set("txn.lock_wait_p50_us", s.us("txn.lock_wait", 0.5), "us")
	m.set("txn.lock_wait_p99_us", s.us("txn.lock_wait", 0.99), "us")
	m.set("txn.wounds_per_ktxn", 1000*ratio(float64(s.counters["txn.wounds"]), commits), "count")
	m.set("txn.prepare_commit_p50_us", s.us("txn.prepare_commit", 0.5), "us")
	m.set("txn.commit_wait_p50_us", s.us("txn.commit_wait", 0.5), "us")

	m.set("ro.blocked_frac", ratio(float64(s.counters["ro.blocked"]), ros), "frac")
	m.set("ro.block_wait_p50_us", s.us("ro.block_wait", 0.5), "us")
	m.set("ro.block_wait_p99_us", s.us("ro.block_wait", 0.99), "us")
	m.set("ro.skips_per_kro", 1000*ratio(float64(s.counters["ro.skips"]), ros), "count")

	m.set("wal.fsyncs_per_kop", 1000*ratio(float64(s.counters["wal.fsyncs"]), float64(ops)), "count")
	m.set("wal.bytes_per_write", ratio(float64(s.counters["wal.bytes"]), float64(writes)), "B")
	m.set("wal.batch_bytes_mean", s.mean("wal.batch_bytes"), "B")
	ckpt, _ := obs.FindHist(s.total, "wal.checkpoint_dur")
	m.set("wal.checkpoint_ms", obs.HistMean(ckpt)/1e6, "ms")

	m.set("repl.entries_per_append_mean", s.mean("repl.append_batch"), "count")
	m.set("repl.ack_lag_p99_us", s.us("repl.ack_lag_chan", 0.99), "us")
}

// budget says how much of the client-observed median the stages that can
// be seen from outside account for. A snapshot read is one round trip
// plus its wait on the blocking set; a read-write transaction is two round
// trips (Begin, Commit) plus the coordinator's three stages. What is left
// is the number in-program tracing must explain. It runs last: the round
// trip comes from the layer replay.
func budget(m metrics, s *scraped, roP50, rwP50 float64) {
	rtt := m["netio.call_rtt_us"].Value
	ros := float64(s.counters["ro.txns"])
	roKnown := rtt + ratio(float64(s.hists["ro.block_wait"].Sum)/1e3, ros)
	rwKnown := 2*rtt + s.us("txn.lock_wait", 0.5) + s.us("txn.prepare_commit", 0.5) + s.us("txn.commit_wait", 0.5)
	m.set("budget.ro_unattributed_frac", 1-ratio(roKnown, roP50), "frac")
	m.set("budget.rw_unattributed_frac", 1-ratio(rwKnown, rwP50), "frac")
}
