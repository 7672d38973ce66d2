package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rsskv/internal/workload"
)

// sample is one completed operation of a measured window.
type sample struct {
	end int64 // ns since the window opened
	lat int64 // ns, client-observed; open loop: from the scheduled arrival
	ro  bool
}

// lane is what one driving goroutine records; nothing in it is shared
// except ops, which the slice sampler reads.
type lane struct {
	samples   []sample
	ops       atomic.Int64 // completed operations
	writes    int64        // keys written and acknowledged
	reads     int64        // snapshot reads completed
	followers int64        // of those, served entirely by follower replicas
	errors    int64        // operations that returned an error
	err       error        // first error seen
	_         [64]byte     // keep neighbouring lanes off one cache line
}

// newLanes returns n lanes, each with room for samples samples.
func newLanes(n, samples int) []*lane {
	lanes := make([]*lane, n)
	for i := range lanes {
		lanes[i] = &lane{samples: make([]sample, 0, samples)}
	}
	return lanes
}

// tick is the sampler's reading at one slice boundary.
type tick struct {
	at  time.Duration // since the window opened
	cpu time.Duration // process user+sys CPU so far
	ops int64         // operations completed so far
}

// window is the raw record of one measured window.
type window struct {
	dur   time.Duration
	slice time.Duration
	lanes []*lane
	ticks []tick

	mallocs      uint64 // heap objects allocated during the window
	heap0, heap1 uint64 // live heap after a forced GC, before and after

	// Open loop only: every scheduled arrival lands in exactly one of
	// completed, dropped or errored.
	offered, drops int64
	schedLag       []int64 // ns the dispatcher ran behind each arrival
}

// totals are a window's counters summed over its lanes.
type totals struct {
	ops, writes, reads, followers, errors int64
	err                                   error // first error seen
}

func (w *window) totals() totals {
	var t totals
	for _, l := range w.lanes {
		t.ops += l.ops.Load()
		t.writes += l.writes
		t.reads += l.reads
		t.followers += l.followers
		t.errors += l.errors
		if t.err == nil {
			t.err = l.err
		}
	}
	return t
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run executes t on lane l and records it; sched is the instant latency
// is measured from.
func (st *stack) run(c *client, l *lane, t *workload.Txn, sched, origin time.Time, tr *tracer) {
	res, err := st.exec(c, t, nil, tr)
	end := time.Now()
	if err != nil {
		l.errors++
		if l.err == nil {
			l.err = err
		}
		return
	}
	l.writes += int64(res.writes)
	if res.ro {
		l.reads++
	}
	if res.follower {
		l.followers++
	}
	l.samples = append(l.samples, sample{end: int64(end.Sub(origin)), lat: int64(end.Sub(sched)), ro: res.ro})
	l.ops.Add(1)
}

// runClosed drives the closed loop: each client issues its next generated
// transaction as soon as the previous one answers, until the window is
// over. A client stops at its first error.
func (st *stack) runClosed(win *window, trs []*tracer) error {
	origin := time.Now()
	stop := win.startSampler(origin)
	var wg sync.WaitGroup
	for i, c := range st.clients {
		wg.Add(1)
		go func(c *client, l *lane, tr *tracer) {
			defer wg.Done()
			for l.err == nil {
				start := time.Now()
				if start.Sub(origin) >= win.dur {
					return
				}
				t := c.gen.Next(c.rng)
				st.run(c, l, &t, start, origin, tr)
			}
		}(c, win.lanes[i], tracerAt(trs, i))
	}
	wg.Wait()
	stop()
	return win.totals().err
}

// runOpen drives the open loop: Poisson arrivals at openRate, each timed
// from its scheduled instant, handed to one of openSlots workers that
// share the clients' connections. The transaction stream and the arrival
// schedule depend only on the seed: both are drawn before looking for a
// free slot. An arrival that finds openSlots earlier ones still
// unanswered is dropped and counted.
func (st *stack) runOpen(win *window, trs []*tracer) error {
	type job struct {
		txn   workload.Txn
		sched time.Time
	}

	// inFlight counts the arrivals handed over and not yet answered. There
	// is a worker for each, so jobs, which has room for as many, holds one
	// only until its worker is scheduled, and a send never blocks.
	jobs := make(chan job, openSlots)
	var inFlight atomic.Int64
	origin := time.Now()
	stop := win.startSampler(origin)
	var wg sync.WaitGroup
	for i := range win.lanes {
		base := st.clients[i%len(st.clients)]
		c := &client{id: 100 + i, cl: base.cl}
		wg.Add(1)
		go func(c *client, l *lane, tr *tracer) {
			defer wg.Done()
			for j := range jobs {
				st.run(c, l, &j.txn, j.sched, origin, tr)
				inFlight.Add(-1)
			}
		}(c, win.lanes[i], tracerAt(trs, i))
	}

	// The dispatcher sleeps in the kernel on its own thread: time.Sleep
	// in a mostly idle process wakes up to a millisecond late here, which
	// would be most of a snapshot read's latency; nanosleep with the
	// thread's timer slack turned down is late by tens of microseconds.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)

	gen := st.clients[0]
	arrivals := rand.New(rand.NewSource(st.seed*1_000_003 + 99991))
	next := origin
	for {
		next = next.Add(time.Duration(arrivals.ExpFloat64() / openRate * 1e9))
		if next.Sub(origin) >= win.dur {
			break
		}
		j := job{txn: gen.gen.Next(gen.rng), sched: next}
		if d := time.Until(next); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
		}
		win.schedLag = append(win.schedLag, int64(time.Since(next)))
		win.offered++
		if inFlight.Load() >= openSlots {
			win.drops++
			continue
		}
		inFlight.Add(1)
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	stop()
	return win.totals().err
}

// startSampler starts the slice sampler: at every slice boundary it reads the
// process CPU clock and the completed-operation count, so CPU per
// operation can be computed slice by slice. The returned function stops
// it and waits for it.
func (win *window) startSampler(origin time.Time) (stop func()) {
	read := func() {
		var ops int64
		for _, l := range win.lanes {
			ops += l.ops.Load()
		}
		win.ticks = append(win.ticks, tick{at: time.Since(origin), cpu: cpuTime(), ops: ops})
	}
	read()
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; time.Duration(i)*win.slice <= win.dur; i++ {
			select {
			case <-time.After(time.Until(origin.Add(time.Duration(i) * win.slice))):
				read()
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		// The drivers finish at the last boundary, so they can beat the
		// sampler to it; take that reading here.
		if len(win.ticks) <= int(win.dur/win.slice) {
			read()
		}
	}
}

// measure runs one measured window of dur on the stack and returns its
// raw record. Heap and allocation counters are read around it, with a
// forced collection on each side so the heap figures are live bytes.
func (st *stack) measure(dur time.Duration, trs []*tracer) (*window, error) {
	win := &window{dur: dur, slice: st.sz.slice}
	// Sample buffers are sized before the first heap reading, with room
	// for well over the fastest rate seen, so the window never grows them.
	run := st.runClosed
	win.lanes = newLanes(len(st.clients), int(dur.Seconds()*60_000)+1024)
	if st.w.open {
		run = st.runOpen
		win.lanes = newLanes(openSlots, int(dur.Seconds()*openRate*4/openSlots)+64)
		win.schedLag = make([]int64, 0, int(dur.Seconds()*openRate*2)+256)
		if err := st.burst(openSlots); err != nil {
			return nil, fmt.Errorf("burst: %w", err)
		}
	}
	var m0, m1 runtime.MemStats
	win.heap0 = settledHeap()
	runtime.ReadMemStats(&m0)
	err := run(win, trs)
	runtime.ReadMemStats(&m1)
	win.mallocs = m1.Mallocs - m0.Mallocs
	win.heap1 = settledHeap()
	return win, err
}

// burst runs n generated transactions at once, one goroutine each, over
// the clients' connections, and waits for them all: the most the window's
// slots can ever have in flight. What a stall of the box leaves behind for
// good — grown write buffers and pending-call maps on both ends of the
// connections, the descriptors of the goroutines that served it (the
// runtime keeps a finished goroutine's, some 400 bytes, for the next one) —
// is then there before the first heap reading, not charged to the writes
// of whichever window happens to contain a stall: without this a run with
// a 0.6 s stall read 114 B per write against 94 to 102 for its neighbours.
func (st *stack) burst(n int) error {
	gen := st.clients[0]
	errs := make([]error, n)
	var started, done sync.WaitGroup
	release := make(chan struct{})
	started.Add(n)
	done.Add(n)
	for i := 0; i < n; i++ {
		// IDs apart from the window's workers, so values stay unique.
		c := &client{id: 100 + openSlots + i, cl: st.clients[i%len(st.clients)].cl}
		t := gen.gen.Next(gen.rng)
		go func(i int) {
			defer done.Done()
			started.Done()
			<-release
			_, errs[i] = st.exec(c, &t, nil, nil)
		}(i)
	}
	started.Wait()
	close(release)
	done.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// settledHeap returns the live heap once the stack's background work has
// drained: it collects until two readings 50 ms apart agree. Without the
// wait, a checkpoint that happens to be in flight at either edge of the
// window puts its whole dump buffer into mem_b_per_write.
func settledHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	for i := 0; i < 10; i++ {
		prev := m.HeapAlloc
		time.Sleep(50 * time.Millisecond)
		runtime.GC()
		runtime.ReadMemStats(&m)
		if d := int64(m.HeapAlloc) - int64(prev); d > -32<<10 && d < 32<<10 {
			break
		}
	}
	return m.HeapAlloc
}
