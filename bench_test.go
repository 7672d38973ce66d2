// Package repro's root benchmarks regenerate every table and figure from
// the paper's evaluation in quick mode, one benchmark per artifact, and
// report the headline metric of each as testing.B custom metrics. The full
// runs (paper-scale durations) are driven by cmd/rssbench. The live stack's
// benchmark is a separate module: see bench/README.md.
//
// Reported custom metrics (all latencies in milliseconds of virtual time):
//
//	BenchmarkFig5*      p99(-RO) latency for Spanner and Spanner-RSS
//	BenchmarkFig6Peak   throughput for both systems at high load
//	BenchmarkFig7*      p99 read latency for Gryff and Gryff-RSC
//	BenchmarkFig7Tail   p99.9 read latency for both
//	BenchmarkOverhead*  throughput delta between Gryff and Gryff-RSC
//	BenchmarkTable1*    invariant violations and anomaly counts
package repro_test

import (
	"testing"

	"rsskv/internal/exp"
	"rsskv/internal/gryff"
	"rsskv/internal/sim"
	"rsskv/internal/spanner"
)

// fig5Bench runs one Figure 5 panel per iteration.
func fig5Bench(b *testing.B, skew float64) {
	cfg := exp.DefaultFig5(skew, true)
	var baseP99, rssP99 float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		base := exp.RunFig5(cfg, spanner.ModeStrict)
		rss := exp.RunFig5(cfg, spanner.ModeRSS)
		baseP99 += base.RO.PercentileMs(99)
		rssP99 += rss.RO.PercentileMs(99)
	}
	b.ReportMetric(baseP99/float64(b.N), "spanner-p99RO-ms")
	b.ReportMetric(rssP99/float64(b.N), "rss-p99RO-ms")
}

func BenchmarkFig5SpannerSkew05(b *testing.B) { fig5Bench(b, 0.5) }
func BenchmarkFig5SpannerSkew07(b *testing.B) { fig5Bench(b, 0.7) }
func BenchmarkFig5SpannerSkew09(b *testing.B) { fig5Bench(b, 0.9) }

// BenchmarkFig6Peak measures both systems at the top of the Figure 6 sweep.
func BenchmarkFig6Peak(b *testing.B) {
	cfg := exp.DefaultFig6(true)
	var bt, rt float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		bt += exp.RunFig6Point(cfg, spanner.ModeStrict, 192).Throughput()
		rt += exp.RunFig6Point(cfg, spanner.ModeRSS, 192).Throughput()
	}
	b.ReportMetric(bt/float64(b.N), "spanner-txn/s")
	b.ReportMetric(rt/float64(b.N), "rss-txn/s")
}

func fig7Bench(b *testing.B, conflictPct, writeRatio float64) {
	cfg := exp.DefaultFig7(conflictPct, true)
	cfg.Duration = 60 * sim.Second
	var bp, rp float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		bp += exp.RunFig7Point(cfg, gryff.ModeLinearizable, writeRatio).Reads.PercentileMs(99)
		rp += exp.RunFig7Point(cfg, gryff.ModeRSC, writeRatio).Reads.PercentileMs(99)
	}
	b.ReportMetric(bp/float64(b.N), "gryff-p99read-ms")
	b.ReportMetric(rp/float64(b.N), "rsc-p99read-ms")
}

func BenchmarkFig7Conflict2(b *testing.B)  { fig7Bench(b, 2, 0.5) }
func BenchmarkFig7Conflict10(b *testing.B) { fig7Bench(b, 10, 0.5) }
func BenchmarkFig7Conflict25(b *testing.B) { fig7Bench(b, 25, 0.5) }

// BenchmarkFig7Tail is §7.3's p99.9 spot check (10% conflicts, 0.3 writes).
func BenchmarkFig7Tail(b *testing.B) {
	cfg := exp.DefaultFig7(10, true)
	cfg.Duration = 120 * sim.Second
	var bp, rp float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		bp += exp.RunFig7Point(cfg, gryff.ModeLinearizable, 0.3).Reads.PercentileMs(99.9)
		rp += exp.RunFig7Point(cfg, gryff.ModeRSC, 0.3).Reads.PercentileMs(99.9)
	}
	b.ReportMetric(bp/float64(b.N), "gryff-p999read-ms")
	b.ReportMetric(rp/float64(b.N), "rsc-p999read-ms")
}

func overheadBench(b *testing.B, writeRatio float64) {
	cfg := exp.DefaultOverhead(true)
	var bt, rt float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		bt += exp.RunOverheadPoint(cfg, gryff.ModeLinearizable, 64, writeRatio).Throughput()
		rt += exp.RunOverheadPoint(cfg, gryff.ModeRSC, 64, writeRatio).Throughput()
	}
	b.ReportMetric(bt/float64(b.N), "gryff-op/s")
	b.ReportMetric(rt/float64(b.N), "rsc-op/s")
	b.ReportMetric((rt-bt)/bt*100, "delta-%")
}

// BenchmarkOverheadYCSBA is §7.4's 50/50 mix; BenchmarkOverheadYCSBB the
// 95/5 mix.
func BenchmarkOverheadYCSBA(b *testing.B) { overheadBench(b, 0.5) }
func BenchmarkOverheadYCSBB(b *testing.B) { overheadBench(b, 0.05) }

// BenchmarkTable1PhotoShare runs the invariant/anomaly matrix and reports
// the PO ablation's violation counts (the strict and RSS rows must be
// zero, which the exp tests assert).
func BenchmarkTable1PhotoShare(b *testing.B) {
	cfg := exp.DefaultTable1(true)
	var i2, a2 float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		v := exp.Table1Row(spanner.ModePO, false, false, cfg)
		i2 += float64(v.I2)
		a2 += float64(v.A2)
	}
	b.ReportMetric(i2/float64(b.N), "po-I2-violations")
	b.ReportMetric(a2/float64(b.N), "po-A2-anomalies")
}
