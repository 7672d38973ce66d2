package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// tinySizes is the benchmark at about a hundredth of its size: enough to
// run every code path, far too little to time anything. The checker's
// slices keep a useful size, because the chaos twin has to be rejected.
var tinySizes = sizes{
	keys:      2500,
	verifyOps: 200,
	twinOps:   400,
	warmup:    5 * time.Millisecond,
	settleOps: 80,
	slice:     100 * time.Millisecond,
	setups:    1,
	replayOps: 40,
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// checkAgainst asserts that a run's result line is what BENCHMARK.json
// promises: exactly the keys of the contract, and exactly the listed
// metrics, each with the listed unit.
func checkAgainst(t *testing.T, rep *report, want []manifestMetric) {
	t.Helper()
	line, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", top)
	}
	if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	for _, w := range want {
		got, ok := rep.Metrics[w.Name]
		if !ok {
			t.Errorf("metric %s is in BENCHMARK.json but was not reported", w.Name)
		} else if got.Unit != w.Unit {
			t.Errorf("metric %s reported in %q, BENCHMARK.json says %q", w.Name, got.Unit, w.Unit)
		}
	}
	if len(rep.Metrics) != len(want) {
		for name := range rep.Metrics {
			found := false
			for _, w := range want {
				found = found || w.Name == name
			}
			if !found {
				t.Errorf("metric %s was reported but is not in BENCHMARK.json", name)
			}
		}
	}
}

// TestSmoke runs all four workloads, untraced and traced, at a hundredth
// of their size. It asserts nothing about time: it keeps the harness
// compiling against the layers' APIs, the metric names stable, and the
// output in step with BENCHMARK.json.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if man.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the harness's window is %d", man.RunSeconds, defaultSeconds)
	}
	if len(man.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(man.Workloads), len(specs))
	}
	setup := false
	for _, m := range append(append([]manifestMetric{}, man.EndToEnd...), man.PerLayer...) {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q (unit %q) is outside the allowed characters", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("BENCHMARK.json has no setup_s metric in s, lower is better")
	}

	out := t.TempDir()
	window := 2 * tinySizes.slice
	for i := range specs {
		w := &specs[i]
		if man.Workloads[i].Name != w.name || !nameRE.MatchString(w.name) {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, man.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			rep, err := runWorkload(w, tinySizes, 7, window, false, out)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainst(t, rep, man.EndToEnd)

			// The traced window is a third of the run; keep it at two slices.
			rep, err = runWorkload(w, tinySizes, 7, 3*window, true, out)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainst(t, rep, man.PerLayer)
			if _, err := os.Stat(out + "/trace-" + w.name + ".json"); err != nil {
				t.Errorf("span file: %v", err)
			}
			// Each workload uses, or leaves alone, the layers it was
			// chosen for.
			m := rep.Metrics
			switch w.name {
			case "mem-retwis":
				for _, name := range []string{"wal.fsyncs_per_kop", "wal.bytes_per_write", "wal.sync_p50_us", "replication.ack_wait_p50_us", "repl.entries_per_append_mean"} {
					if m[name].Value != 0 {
						t.Errorf("%s = %v on the in-memory stack, want 0", name, m[name].Value)
					}
				}
			case "durable-retwis", "open-durable":
				if m["wal.fsyncs_per_kop"].Value == 0 || m["repl.entries_per_append_mean"].Value == 0 {
					t.Errorf("no wal or replication activity on the durable, replicated stack")
				}
			}
		})
	}
}

// TestOpenLoopAccounting pins the identity account enforces: a window
// whose buckets do not sum to its offered arrivals has no result.
func TestOpenLoopAccounting(t *testing.T) {
	win := &window{offered: 10, drops: 1, lanes: newLanes(1, 0)}
	win.lanes[0].ops.Store(8)
	win.lanes[0].errors = 1
	rep, err := account(win)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempted != 10 || rep.Failed != 2 {
		t.Errorf("attempted=%d failed=%d, want 10 and 2", rep.Attempted, rep.Failed)
	}
	win.offered = 11
	if _, err := account(win); err == nil {
		t.Error("a leaked arrival was not reported")
	}
}
