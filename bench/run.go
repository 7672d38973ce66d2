package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// report is one run's result in the form the driver reads: the last line
// of standard output is this object as JSON.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
	// Diag are an untraced run's ungated timings. They are not part of the
	// result line; main prints them on the line before it.
	Diag metrics `json:"-"`
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// runWorkload runs one workload once: the chaos twin, the set-ups, and
// either the untraced window (end-to-end metrics) or the traced pass
// (per-layer metrics). A wrong checker verdict, a bad read or a broken
// accounting identity comes back as an error: the run has no result.
func runWorkload(w *spec, sz sizes, seed int64, dur time.Duration, traced bool, out string) (*report, error) {
	dataRoot := filepath.Join(out, "data") // where durable stacks live
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	if err := chaosTwin(sz, seed); err != nil {
		return nil, err
	}
	logf("%s: stale-reads chaos twin rejected by the RSS checker", w.name)

	setups := sz.setups
	if traced {
		setups = 1 // setup_s is an untraced metric
	}
	var st *stack
	var v verdict
	var err error
	var setupTimes, workTimes []float64
	for i := 0; i < setups; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		start := time.Now()
		st, v, err = setup(w, sz, seed, dataRoot)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		workTimes = append(workTimes, st.work.Seconds())
	}
	defer st.close()
	logf("%s: set up %d time(s) %.3v s, of which work %.3v s; verification slice of %d ops accepted as RSS",
		w.name, setups, setupTimes, workTimes, v.ops)

	// A replicated shard keeps the last 4096 entries of its log, and after
	// the preload those are 500-key entries. Run until they have been
	// truncated away, or the window would see them go and report memory
	// shrinking as it writes.
	if w.replicas > 1 {
		if _, err := st.drive(sz.settleOps, false); err != nil {
			return nil, fmt.Errorf("%s: settling: %w", w.name, err)
		}
	}

	if traced {
		return tracedPass(st, v, dur, out)
	}
	win, err := st.measure(dur, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: measured window: %w", w.name, err)
	}
	rep, err := account(win)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rep.Metrics = endToEnd(win, median(setupTimes))
	rep.Diag = timings(win.slices())
	rep.Diag.set("diag.setup_work_s", median(workTimes), "s")
	return rep, nil
}

// account fills in the attempted and failed counts of a window and checks
// the open-loop identity: every scheduled arrival is accounted for once.
func account(win *window) (*report, error) {
	t := win.totals()
	rep := &report{Correct: true, Attempted: t.ops + t.errors, Failed: t.errors}
	if win.offered > 0 {
		if win.offered != t.ops+win.drops+t.errors {
			return nil, fmt.Errorf("open-loop accounting broken: offered=%d ops=%d drops=%d errors=%d",
				win.offered, t.ops, win.drops, t.errors)
		}
		rep.Attempted = win.offered
		rep.Failed += win.drops
	}
	if rep.Failed > 0 {
		logf("failed operations: %d errors, %d open-loop drops", t.errors, win.drops)
	}
	return rep, nil
}
