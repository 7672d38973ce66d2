package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"time"

	"rsskv/internal/core"
	"rsskv/internal/history"
	"rsskv/internal/kvclient"
	"rsskv/internal/server"
	"rsskv/internal/sim"
	"rsskv/internal/workload"
)

// stack is one workload's system under test: a server on loopback TCP
// inside this process, its clients, and the seeded request generators.
type stack struct {
	w    *spec
	sz   sizes
	srv  *server.Server
	root string // where durable stacks keep their data directories
	dir  string // this stack's data directory ("" when it is in-memory)

	clients []*client
	seed    int64
	epoch   time.Time     // origin of recorded history instants
	work    time.Duration // set-up up to the warm-up: open, preload, verification slice
}

// client is one application process: a private connection (and so its own
// t_min session) and a deterministic transaction stream.
type client struct {
	id   int
	cl   *kvclient.Client
	rng  *rand.Rand
	gen  *workload.Retwis
	nval uint64
	last sim.Time
	buf  []byte
}

// openStack stands the server up and connects the clients; nothing has
// been written yet.
func openStack(w *spec, sz sizes, seed int64, dataRoot string) (*stack, error) {
	st := &stack{w: w, sz: sz, seed: seed, root: dataRoot, epoch: time.Now()}
	if w.durable {
		dir, err := os.MkdirTemp(dataRoot, w.name+"-")
		if err != nil {
			return nil, err
		}
		st.dir = dir
	}
	cfg, err := w.serverConfig(st.dir)
	if err != nil {
		st.close()
		return nil, err
	}
	srv, err := server.Open(cfg)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("open server: %w", err)
	}
	st.srv = srv
	if err := srv.Start("127.0.0.1:0"); err != nil {
		st.close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	keys := w.chooser(sz)
	for i := 0; i < numClients; i++ {
		cl, err := kvclient.Dial(srv.Addr(), kvclient.Options{Conns: 1})
		if err != nil {
			st.close()
			return nil, err
		}
		st.clients = append(st.clients, &client{
			id:  i,
			cl:  cl,
			rng: rand.New(rand.NewSource(seed*1_000_003 + int64(i)*7919)),
			gen: workload.NewRetwis(keys),
		})
	}
	return st, nil
}

// close stops the clients and the server and removes the data directory.
func (st *stack) close() {
	for _, c := range st.clients {
		c.cl.Close()
	}
	if st.srv != nil {
		st.srv.Close()
	}
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}

// value builds a 32-byte value that is unique in the run (writer and
// sequence number) and names the key it belongs to, so every read in the
// measured window can be checked against the key it was asked for.
func (c *client) value(key string) string {
	c.nval++
	b := append(c.buf[:0], key[len(key)-8:]...)
	b = append(b, '-', 'c')
	b = strconv.AppendInt(b, int64(c.id), 10)
	b = append(b, '-')
	b = strconv.AppendUint(b, c.nval, 10)
	for len(b) < valueLen {
		b = append(b, '.')
	}
	c.buf = b
	return string(b)
}

// preloadValue is the value every key holds before any transaction runs.
func preloadValue(key string) string {
	b := make([]byte, 0, valueLen)
	b = append(b, key[len(key)-8:]...)
	b = append(b, "-preload"...)
	for len(b) < valueLen {
		b = append(b, '.')
	}
	return string(b)
}

// validReads reports whether every value is one this benchmark wrote to
// the key it came back under. Recorded operations are judged by the RSS
// checker instead; this is the check the unrecorded windows get.
func validReads(vals map[string]string) bool {
	for k, v := range vals {
		if len(v) != valueLen || len(k) < 8 || v[:8] != k[len(k)-8:] {
			return false
		}
	}
	return true
}

var errBadRead = errors.New("read returned a value that was never written to that key")

// now returns a strictly increasing instant on the history's time axis,
// so process order survives the checker's sort by invocation time.
func (c *client) now(epoch time.Time) sim.Time {
	t := sim.Time(time.Since(epoch))
	if t <= c.last {
		t = c.last + 1
	}
	c.last = t
	return t
}

// result is what one executed transaction reports to the driver.
type result struct {
	ro       bool
	follower bool // a snapshot read served entirely by follower replicas
	writes   int  // keys written and acknowledged
}

// exec runs one Retwis transaction through kvclient: load-timeline as a
// lock-free snapshot read, the three read-write kinds as Begin + one-shot
// Commit (write keys take exclusive locks; read keys are returned from
// pre-state). With rec non-nil the operation is recorded for the checker,
// otherwise its reads are validated here; with tr non-nil a span is
// recorded around every kvclient call.
func (st *stack) exec(c *client, t *workload.Txn, rec *[]*core.Op, tr *tracer) (result, error) {
	if t.IsReadOnly() {
		var op *core.Op
		if rec != nil {
			op = &core.Op{Client: c.id, Service: "rsskvd", Type: core.ROTxn, Respond: core.Pending, Invoke: c.now(st.epoch)}
		}
		root := tr.begin("txn.ro", 0)
		sp := tr.begin("kvclient.Snapshot", root)
		ro, err := c.cl.Snapshot(t.ReadKeys...)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return result{ro: true}, err
		}
		if op != nil {
			op.Reads, op.Version, op.ReadVers = ro.Vals, ro.Snapshot, ro.Vers
			op.Respond = c.now(st.epoch)
			*rec = append(*rec, op)
			return result{ro: true}, nil
		}
		if len(ro.Vals) != len(t.ReadKeys) || !validReads(ro.Vals) {
			return result{ro: true}, errBadRead
		}
		return result{ro: true, follower: ro.Follower}, nil
	}

	root := tr.begin("txn.rw", 0)
	sp := tr.begin("kvclient.Begin", root)
	txn, err := c.cl.Begin()
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return result{}, err
	}
	txn.Read(t.ReadKeys...)
	var op *core.Op
	if rec != nil {
		op = &core.Op{Client: c.id, Service: "rsskvd", Type: core.RWTxn, Respond: core.Pending,
			Writes: make(map[string]string, len(t.WriteKeys))}
	}
	for _, k := range t.WriteKeys {
		v := c.value(k)
		txn.Write(k, v)
		if op != nil {
			op.Writes[k] = v
		}
	}
	if op != nil {
		op.Invoke = c.now(st.epoch)
	}
	sp = tr.begin("kvclient.Commit", root)
	reads, version, err := txn.Commit()
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return result{}, err
	}
	if op != nil {
		op.Reads, op.Version, op.ReadVers = reads, version, txn.ReadVers()
		op.Respond = c.now(st.epoch)
		*rec = append(*rec, op)
	} else if !validReads(reads) {
		return result{}, errBadRead
	}
	return result{writes: len(t.WriteKeys)}, nil
}

// preloadOp is one preload batch as the history sees it.
type preloadOp struct {
	client          int
	first, n        int // key ranks [first, first+n)
	invoke, respond sim.Time
	version         int64
}

// preload writes every key of the keyspace once, each client loading its
// half in MultiPut batches, and returns the batches for the history.
func (st *stack) preload() ([]preloadOp, error) {
	per := (st.sz.keys + numClients - 1) / numClients
	out := make([][]preloadOp, numClients)
	errs := make([]error, numClients)
	var wg sync.WaitGroup
	for i, c := range st.clients {
		lo, hi := i*per, (i+1)*per
		if hi > st.sz.keys {
			hi = st.sz.keys
		}
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for first := lo; first < hi; first += preloadBatch {
				n := preloadBatch
				if first+n > hi {
					n = hi - first
				}
				kvs := make(map[string]string, n)
				for k := first; k < first+n; k++ {
					key := workload.KeyName(uint64(k))
					kvs[key] = preloadValue(key)
				}
				p := preloadOp{client: c.id, first: first, n: n, invoke: c.now(st.epoch)}
				v, err := c.cl.MultiPut(kvs)
				if err != nil {
					errs[i] = fmt.Errorf("preload: %w", err)
					return
				}
				p.version, p.respond = v, c.now(st.epoch)
				out[i] = append(out[i], p)
			}
		}(i, c)
	}
	wg.Wait()
	var all []preloadOp
	for i := range out {
		if errs[i] != nil {
			return nil, errs[i]
		}
		all = append(all, out[i]...)
	}
	return all, nil
}

// verdict is the outcome of one recorded slice.
type verdict struct {
	ops      int
	err      error // nil when the checker accepted the history as RSS
	checkDur time.Duration
	allocs   uint64 // heap objects the check allocated
}

// drive runs n generated transactions, split evenly over the closed-loop
// clients. With record set every operation is kept for the checker.
func (st *stack) drive(n int, record bool) ([][]*core.Op, error) {
	recs := make([][]*core.Op, len(st.clients))
	errs := make([]error, len(st.clients))
	var wg sync.WaitGroup
	for i, c := range st.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			var rec *[]*core.Op
			if record {
				rec = &recs[i]
			}
			for j := 0; j < n/len(st.clients); j++ {
				t := c.gen.Next(c.rng)
				if _, err := st.exec(c, &t, rec, nil); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return recs, nil
}

// recordedSlice drives n generated transactions through the closed-loop
// clients, records every one, and checks the history — slice plus the
// preload writes of the keys it touched — against RSS.
func (st *stack) recordedSlice(n int, pre []preloadOp) (verdict, error) {
	recs, err := st.drive(n, true)
	if err != nil {
		return verdict{}, fmt.Errorf("verification slice: %w", err)
	}

	h := &history.History{}
	touched := map[string]bool{}
	var id int64
	for _, ops := range recs {
		for _, op := range ops {
			id++
			op.ID = id
			h.Add(op)
			for k := range op.Reads {
				touched[k] = true
			}
			for k := range op.Writes {
				touched[k] = true
			}
		}
	}
	// A preload batch enters the history with only the keys the slice
	// touched: a write nobody reads constrains nothing.
	for _, p := range pre {
		var writes map[string]string
		for k := p.first; k < p.first+p.n; k++ {
			key := workload.KeyName(uint64(k))
			if touched[key] {
				if writes == nil {
					writes = map[string]string{}
				}
				writes[key] = preloadValue(key)
			}
		}
		if writes == nil {
			continue
		}
		id++
		h.Add(&core.Op{ID: id, Client: p.client, Service: "rsskvd", Type: core.RWTxn,
			Invoke: p.invoke, Respond: p.respond, Version: p.version, Writes: writes})
	}

	v := verdict{ops: h.Len()}
	v.allocs = mallocs(func() {
		start := time.Now()
		v.err = history.Check(h, core.RSS)
		v.checkDur = time.Since(start)
	})
	return v, nil
}

// setup is everything before the first measured operation: server open,
// preload of the full keyspace, the RSS-checked verification slice, and
// warm-up traffic. It returns the ready stack and the verification verdict.
func setup(w *spec, sz sizes, seed int64, dataRoot string) (*stack, verdict, error) {
	start := time.Now()
	st, err := openStack(w, sz, seed, dataRoot)
	if err != nil {
		return nil, verdict{}, err
	}
	pre, err := st.preload()
	if err != nil {
		st.close()
		return nil, verdict{}, err
	}
	v, err := st.recordedSlice(sz.verifyOps, pre)
	if err != nil {
		st.close()
		return nil, verdict{}, err
	}
	if v.err != nil {
		st.close()
		return nil, v, fmt.Errorf("%s: verification slice rejected: %w", w.name, v.err)
	}
	st.work = time.Since(start)
	warm := &window{dur: sz.warmup, slice: sz.warmup, lanes: newLanes(len(st.clients), 0)}
	if err := st.runClosed(warm, nil); err != nil {
		st.close()
		return nil, v, fmt.Errorf("warm-up: %w", err)
	}
	return st, v, nil
}

// chaosTwin runs a tiny recorded slice against a server whose snapshot
// reads are deliberately stale. The checker must reject it: if it does
// not, an accepted verification slice means nothing.
func chaosTwin(sz sizes, seed int64) error {
	twin := spec{name: "stale-reads-twin", replicas: 1, theta: 0.9, hot: true, chaos: "stale-reads"}
	sz.keys = hotKeys
	st, err := openStack(&twin, sz, seed, "")
	if err != nil {
		return err
	}
	defer st.close()
	pre, err := st.preload()
	if err != nil {
		return err
	}
	v, err := st.recordedSlice(sz.twinOps, pre)
	if err != nil {
		return err
	}
	if v.err == nil {
		return fmt.Errorf("stale-reads chaos twin: the RSS checker accepted a %d-op history recorded against a server serving stale snapshots", v.ops)
	}
	return nil
}
