// Command bench is the repository's benchmark: it hosts the rsskvd serving
// stack on loopback TCP inside this process, drives it through kvclient
// with the paper's Retwis mix, checks a recorded slice of every workload
// against the RSS checker, and prints every metric by name with its unit.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func emit(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print its result as one JSON line (default: run all four)")
		seed         = flag.Int64("seed", 1, "workload seed: the same seed gives the same transactions and arrival schedule")
		seconds      = flag.Int("seconds", defaultSeconds, "length of the measured window in seconds")
		trace        = flag.Int("trace", 0, "1: traced pass, prints the per-layer metrics and writes the span file; 0: untraced, prints the end-to-end metrics")
		repeat       = flag.Int("repeat", 1, "run the whole suite this many times on consecutive seeds and print the spread of every metric")
		out          = flag.String("out", ".bench_build/out", "directory for span files and durable stacks' data")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second

	if *workloadName == "" {
		os.Exit(suite(*seed, *seconds, *trace, *repeat, *out))
	}
	w := specByName(*workloadName)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	rep, err := runWorkload(w, fullSizes, *seed, dur, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	printReport(os.Stderr, w.name, rep)
	if rep.Diag != nil {
		emit(map[string]metrics{"diag": rep.Diag})
	}
	emit(rep) // the result is the last line of standard output
}
