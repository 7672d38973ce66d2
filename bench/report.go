package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// printReport lists a run's metrics by name with their units, the gated
// ones first.
func printReport(w io.Writer, workload string, rep *report) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", workload, rep.Correct, rep.Attempted, rep.Failed)
	for _, ms := range []metrics{rep.Metrics, rep.Diag} {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
}

// manifest is BENCHMARK.json. The suite reads the bounds of the
// end-to-end metrics from it; the smoke test checks the harness against
// all of it.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) map[string]float64 {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var m manifest
	if json.Unmarshal(raw, &m) != nil {
		return nil
	}
	bounds := map[string]float64{}
	for _, e := range m.EndToEnd {
		bounds[e.Name] = e.Bound
	}
	return bounds
}

// runChild runs one workload in a fresh process, exactly as the driver
// does, and parses the last line it prints.
func runChild(name string, seed int64, seconds, trace int, out string, silent bool) (*report, error) {
	cmd := exec.Command(os.Args[0], "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", out)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if !silent {
		cmd.Stderr = os.Stderr
	}
	if err := cmd.Run(); err != nil {
		os.Stderr.Write(stderr.Bytes())
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	rep := &report{}
	if err := json.Unmarshal(lines[len(lines)-1], rep); err != nil {
		return nil, fmt.Errorf("%s seed %d: bad result line: %w", name, seed, err)
	}
	if len(lines) > 1 {
		var extra struct{ Diag metrics }
		if json.Unmarshal(lines[len(lines)-2], &extra) == nil {
			rep.Diag = extra.Diag
		}
	}
	return rep, nil
}

// quartiles returns the first and third quartile of sorted vs the way
// Python's statistics.quantiles(vs, n=4) does, which is what the driver
// computes spreads from.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

// suite runs every workload repeat times on consecutive seeds, each run in
// its own process. With repeat 1 it prints each run's metrics; with more
// it prints, per workload and metric, min / median / max, (max-min)/median
// and the interquartile spread, and fails if a bounded metric's spread
// exceeds its bound in BENCHMARK.json.
func suite(seed int64, seconds, trace, repeat int, out string) int {
	bounds := loadBounds("BENCHMARK.json")
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	units := map[string]string{}
	attempted, failedOps := map[string]int64{}, map[string]int64{}
	failed := false
	for r := 0; r < repeat; r++ {
		for i := range specs {
			name := specs[i].name
			rep, err := runChild(name, seed+int64(r), seconds, trace, out, repeat > 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			if repeat == 1 {
				printReport(os.Stdout, name, rep)
			} else {
				logf("run %d/%d %s: attempted=%d failed=%d", r+1, repeat, name, rep.Attempted, rep.Failed)
			}
			if !rep.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: incorrect\n", name, seed+int64(r))
				failed = true
			}
			attempted[name] += rep.Attempted
			failedOps[name] += rep.Failed
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for _, ms := range []metrics{rep.Metrics, rep.Diag} {
				for m, v := range ms {
					values[name][m] = append(values[name][m], v.Value)
					units[m] = v.Unit
				}
			}
		}
	}
	if repeat > 1 {
		fmt.Printf("%d runs per workload, seeds %d..%d, %d s windows, trace=%d\n\n", repeat, seed, seed+int64(repeat)-1, seconds, trace)
		for i := range specs {
			name := specs[i].name
			fmt.Printf("- %s: %d operations attempted, %d failed\n", name, attempted[name], failedOps[name])
		}
		fmt.Println()
		fmt.Println("| workload | metric | unit | min | median | max | (max-min)/median | IQR/median | bound | |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
		for i := range specs {
			name := specs[i].name
			var ms []string
			for m := range values[name] {
				ms = append(ms, m)
			}
			sort.Strings(ms)
			for _, m := range ms {
				vs := append([]float64(nil), values[name][m]...)
				sort.Float64s(vs)
				med := median(vs)
				q1, q3 := quartiles(vs)
				rng, iqr := ratio(vs[len(vs)-1]-vs[0], med), ratio(q3-q1, med)
				bound, verdict := "", ""
				if b, ok := bounds[m]; ok {
					bound = strconv.FormatFloat(b, 'g', -1, 64)
					verdict = "ok"
					// setup_s is bounded on its median between two sets
					// of runs, not on its spread within one.
					if iqr > b && m != "setup_s" {
						verdict = "EXCEEDS"
						failed = true
					}
				}
				fmt.Printf("| %s | %s | %s | %.4g | %.4g | %.4g | %.4f | %.4f | %s | %s |\n",
					name, m, units[m], vs[0], med, vs[len(vs)-1], rng, iqr, bound, verdict)
			}
		}
	}
	if failed {
		return 1
	}
	return 0
}
