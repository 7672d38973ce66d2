// Command rssbench regenerates the tables and figures from the paper's
// evaluation (§6, §7) on the simulated substrate. See DESIGN.md for the
// per-experiment index and bench/README.md for the live stack's benchmark.
//
// Usage:
//
//	rssbench [-quick] [-csv] <experiment> [flags]
//
// Experiments:
//
//	fig5      Spanner vs Spanner-RSS RO tail latency (-skew 0.5|0.7|0.9|all)
//	fig6      Spanner vs Spanner-RSS peak-load throughput/latency
//	fig7      Gryff vs Gryff-RSC p99 read latency (-conflict 2|10|25|all)
//	fig7tail  §7.3 p99.9 read latency spot check
//	overhead  §7.4 Gryff vs Gryff-RSC without WAN emulation
//	table1    photo-share invariant/anomaly matrix
//	table2    emulated RTT matrix
//	ablation  §6 optimizations ablated (repo extension, not a paper figure)
//	all       everything above except the ablation
//
// Serving-layer modes (real sockets, not the simulator):
//
//	serve     run an in-process rsskvd (-addr, -shards)
//	loadgen   drive a server with concurrent pipelined clients, record
//	          the history, and verify it is RSS (-addr, -clients, -ops,
//	          -keys, -txnfrac, -multifrac, -fence-every, -seed;
//	          -expect-follower fails the run unless follower replicas —
//	          in-process or external -mode=replica processes — served
//	          snapshot reads; -metrics-out scrapes the target after the
//	          run — plus any -scrape-addrs daemons — renders the merged
//	          per-stage dashboard, and writes the JSON document)
//	checkhist merge recorded history JSON files (rssbench loadgen -record,
//	          one per server incarnation across a crash), repair pending
//	          writes from read witnesses, and verify the merged history
//	          is RSS — the offline half of the kill -9 durability test
//	composition
//	          the live §4 experiment: photo-share across two rsskvd
//	          daemons plus the socketed queue behind libRSS fences, the
//	          merged history checked against RSS; -fences=both also runs
//	          the fences-off PO-ablation twin, which the checker must
//	          reject (-album-addr, -photo-addr, -queue-addr, -adders,
//	          -viewers, -photos, -probes, -po-lag)
//	metrics   scrape the OpMetrics registries of live daemons (kv leaders,
//	          -mode=replica read listeners, queue daemons) and render a
//	          merged per-stage dashboard (-addrs, -metrics-json, -require,
//	          -plot draws bucket occupancy bars); -require fails the run
//	          when a named histogram is empty, the CI smoke gate
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"rsskv/internal/exp"
	"rsskv/internal/stats"
)

var (
	quick    = flag.Bool("quick", false, "shrink durations for a fast pass")
	csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	plot     = flag.Bool("plot", false, "also draw ASCII plots (fig5 tail CDFs, metrics bucket bars)")
	skew     = flag.String("skew", "all", "fig5 Zipfian skew: 0.5, 0.7, 0.9, or all")
	conflict = flag.String("conflict", "all", "fig7 conflict percentage: 2, 10, 25, or all")
)

func emit(t *stats.Table) {
	if *csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.String())
	}
}

func timed(name string, f func()) {
	start := time.Now()
	f()
	fmt.Fprintf(os.Stderr, "[%s took %.1fs wall]\n", name, time.Since(start).Seconds())
}

func fig5() {
	skews := map[string][]float64{
		"0.5": {0.5}, "0.7": {0.7}, "0.9": {0.9}, "all": {0.5, 0.7, 0.9},
	}[*skew]
	if skews == nil {
		fmt.Fprintf(os.Stderr, "unknown -skew %q\n", *skew)
		os.Exit(2)
	}
	for _, s := range skews {
		timed(fmt.Sprintf("fig5 skew %.1f", s), func() {
			t, base, rss := exp.Fig5(exp.DefaultFig5(s, *quick))
			emit(t)
			if *plot {
				fmt.Println(stats.PlotTailCDF(
					fmt.Sprintf("RO latency tail CDF, skew %.1f", s), 70,
					stats.Series{Name: "spanner", Sample: &base.RO},
					stats.Series{Name: "spanner-rss", Sample: &rss.RO}))
			}
		})
	}
}

func fig7() {
	confs := map[string][]float64{
		"2": {2}, "10": {10}, "25": {25}, "all": {2, 10, 25},
	}[*conflict]
	if confs == nil {
		fmt.Fprintf(os.Stderr, "unknown -conflict %q\n", *conflict)
		os.Exit(2)
	}
	for _, c := range confs {
		timed(fmt.Sprintf("fig7 %.0f%% conflicts", c), func() {
			emit(exp.Fig7(exp.DefaultFig7(c, *quick)))
		})
	}
}

func main() {
	flag.Parse()
	cmd := flag.Arg(0)
	if cmd == "" {
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() > 1 {
		// Accept flags after the experiment name too.
		if err := flag.CommandLine.Parse(flag.Args()[1:]); err != nil {
			os.Exit(2)
		}
	}
	switch cmd {
	case "fig5":
		fig5()
	case "fig6":
		timed("fig6", func() { emit(exp.Fig6(exp.DefaultFig6(*quick))) })
	case "fig7":
		fig7()
	case "fig7tail":
		timed("fig7tail", func() { emit(exp.Fig7Tail(*quick)) })
	case "overhead":
		timed("overhead", func() {
			cfg := exp.DefaultOverhead(*quick)
			emit(exp.Overhead(cfg, 0.5))  // YCSB-A
			emit(exp.Overhead(cfg, 0.05)) // YCSB-B
		})
	case "table1":
		timed("table1", func() { emit(exp.Table1(exp.DefaultTable1(*quick))) })
	case "table2":
		emit(exp.Table2())
	case "ablation":
		timed("ablation", func() { emit(exp.Ablation(exp.DefaultFig5(0.9, *quick))) })
	case "serve":
		serveCmd()
	case "loadgen":
		timed("loadgen", loadgenCmd)
	case "composition":
		timed("composition", compositionCmd)
	case "checkhist":
		checkhistCmd()
	case "metrics":
		metricsCmd()
	case "promote":
		promoteCmd()
	case "all":
		emit(exp.Table2())
		timed("table1", func() { emit(exp.Table1(exp.DefaultTable1(*quick))) })
		fig5()
		timed("fig6", func() { emit(exp.Fig6(exp.DefaultFig6(*quick))) })
		fig7()
		timed("fig7tail", func() { emit(exp.Fig7Tail(*quick)) })
		timed("overhead", func() {
			cfg := exp.DefaultOverhead(*quick)
			emit(exp.Overhead(cfg, 0.5))
			emit(exp.Overhead(cfg, 0.05))
		})
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", cmd)
		os.Exit(2)
	}
}
