package main

import (
	"math"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// median returns the middle of vs (the mean of the two middles for an
// even count), or 0 for none. It sorts vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of sorted vs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func maxOf(vs []float64) float64 {
	var m float64
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// quiet reduces a per-slice series to one number: the mean of the best
// third of the slices — the lowest for a cost, the highest for a rate.
// Interference on a shared box only ever slows a slice down, never speeds
// it up, so the quiet end of the series says what the code costs and the
// rest says what the neighbours were doing. A neighbour's burst, a
// checkpoint or a slow fsync would have to hit two slices in three to move
// it; being a mean of several slices it is steadier than any one of them.
func quiet(series []float64, higherIsBetter bool) float64 {
	if len(series) == 0 {
		return 0
	}
	s := append([]float64(nil), series...)
	sort.Float64s(s)
	k := len(s) / 3
	if k < 1 {
		k = 1
	}
	if higherIsBetter {
		s = s[len(s)-k:]
	} else {
		s = s[:k]
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(k)
}

// sliceStats are the per-slice series of one window.
type sliceStats struct {
	throughput   []float64 // completed ops/s
	roP50, roP99 []float64 // us
	rwP50, rwP99 []float64 // us
	cpuPerOp     []float64 // us of process CPU per completed op
}

// slices bins the window's samples by completion time and computes every
// series.
func (w *window) slices() sliceStats {
	n := int(w.dur / w.slice)
	if n < 1 {
		n = 1
	}
	ro := make([][]float64, n)
	rw := make([][]float64, n)
	for _, l := range w.lanes {
		for _, s := range l.samples {
			us := float64(s.lat) / 1e3
			i := int(s.end / int64(w.slice))
			if i >= n {
				continue // finished after the last boundary
			}
			if s.ro {
				ro[i] = append(ro[i], us)
			} else {
				rw[i] = append(rw[i], us)
			}
		}
	}
	var st sliceStats
	for i := 0; i < n; i++ {
		st.throughput = append(st.throughput, float64(len(ro[i])+len(rw[i]))/w.slice.Seconds())
		sort.Float64s(ro[i])
		sort.Float64s(rw[i])
		if len(ro[i]) > 0 {
			st.roP50 = append(st.roP50, percentile(ro[i], 50))
			st.roP99 = append(st.roP99, percentile(ro[i], 99))
		}
		if len(rw[i]) > 0 {
			st.rwP50 = append(st.rwP50, percentile(rw[i], 50))
			st.rwP99 = append(st.rwP99, percentile(rw[i], 99))
		}
	}
	for i := 1; i < len(w.ticks); i++ {
		if ops := w.ticks[i].ops - w.ticks[i-1].ops; ops > 0 {
			cpu := w.ticks[i].cpu - w.ticks[i-1].cpu
			st.cpuPerOp = append(st.cpuPerOp, float64(cpu.Microseconds())/float64(ops))
		}
	}
	return st
}

// medians returns the whole window's median read and read-write latency
// in microseconds, for comparison with the server's whole-window
// histograms.
func (w *window) medians() (ro, rw float64) {
	var ros, rws []float64
	for _, l := range w.lanes {
		for _, s := range l.samples {
			if s.ro {
				ros = append(ros, float64(s.lat)/1e3)
			} else {
				rws = append(rws, float64(s.lat)/1e3)
			}
		}
	}
	return median(ros), median(rws)
}

// endToEnd reduces a window to the gated, user-visible metrics: the two
// counts and the set-up time. Every timing of the window itself is in
// timings.
func endToEnd(w *window, setupS float64) metrics {
	t := w.totals()
	m := metrics{}
	m.set("allocs_per_op", ratio(float64(w.mallocs), float64(t.ops)), "count")
	m.set("mem_b_per_write", ratio(float64(w.heap1)-float64(w.heap0), float64(t.writes)), "B")
	m.set("setup_s", setupS, "s")
	return m
}

// timings are the user-visible timings this box cannot repeat well enough
// to gate (see REPEATABILITY.md): throughput, the issue's ro/rw
// percentiles and CPU per operation. Untraced runs print them for the
// reader; traced runs report them as per-layer metrics under diag.
func timings(st sliceStats) metrics {
	m := metrics{}
	m.set("diag.throughput_ops_s", quiet(st.throughput, true), "ops/s")
	m.set("diag.ro_p50_us", quiet(st.roP50, false), "us")
	m.set("diag.ro_p99_us", quiet(st.roP99, false), "us")
	m.set("diag.rw_p50_us", quiet(st.rwP50, false), "us")
	m.set("diag.rw_p99_us", quiet(st.rwP99, false), "us")
	m.set("diag.cpu_us_per_op", quiet(st.cpuPerOp, false), "us")
	m.set("diag.worst_slice_ro_p99_us", maxOf(st.roP99), "us")
	m.set("diag.worst_slice_rw_p99_us", maxOf(st.rwP99), "us")
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
