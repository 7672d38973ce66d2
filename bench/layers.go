package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rsskv/internal/kvclient"
	"rsskv/internal/locks"
	"rsskv/internal/mvstore"
	"rsskv/internal/netio"
	"rsskv/internal/obs"
	"rsskv/internal/replication"
	"rsskv/internal/truetime"
	"rsskv/internal/wal"
	"rsskv/internal/wire"
	"rsskv/internal/workload"
)

// The layer replay: each layer's public functions are timed in isolation,
// fed the transaction stream the workload's generator produces (the R rows
// of the table in README.md). It runs after the stack is closed, so
// nothing else competes for the two CPUs.

const replayPasses = 5 // codec-sized loops repeat this often; the median pass is reported

// perItem runs f passes times over items items and returns the median
// nanoseconds per item.
func perItem(passes, items int, f func()) float64 {
	if items == 0 {
		return 0
	}
	per := make([]float64, passes)
	for i := range per {
		start := time.Now()
		f()
		per[i] = float64(time.Since(start).Nanoseconds()) / float64(items)
	}
	return median(per)
}

// mallocs returns the number of heap objects f allocates.
func mallocs(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// replay is the generated stream in the forms the layers take it.
type replay struct {
	txns  []workload.Txn
	reqs  []*wire.Request   // what kvclient sends per transaction (Begin's 3-byte frame left out)
	resps []*wire.Response  // what the server answers
	rw    []int             // indexes of the read-write transactions
	fps   [][]locks.Request // their lock footprints, parallel to rw
	nLock int               // keys locked over all read-write transactions
	wkeys int               // keys written over all read-write transactions
	rkeys int               // keys read over all snapshot reads
}

func newReplay(w *spec, sz sizes, seed int64) *replay {
	rng := rand.New(rand.NewSource(seed*1_000_003 + 555))
	gen := workload.NewRetwis(w.chooser(sz))
	r := &replay{}
	c := &client{id: 9}
	ts := time.Now().UnixNano()
	for i := 0; i < sz.replayOps; i++ {
		t := gen.Next(rng)
		r.txns = append(r.txns, t)
		req := &wire.Request{Op: wire.OpROTxn, Keys: t.ReadKeys, TMin: ts}
		resp := &wire.Response{Op: wire.OpROTxn, OK: true, Version: ts + int64(i)}
		for _, k := range t.ReadKeys {
			resp.KVs = append(resp.KVs, wire.KV{Key: k, Value: preloadValue(k)})
			resp.Vers = append(resp.Vers, ts)
		}
		if t.IsReadOnly() {
			r.rkeys += len(t.ReadKeys)
		} else {
			req.Op, req.TMin, req.TxnID = wire.OpCommit, 0, uint64(i+1)
			resp.Op, resp.TxnID = wire.OpCommit, uint64(i+1)
			for _, k := range t.WriteKeys {
				req.KVs = append(req.KVs, wire.KV{Key: k, Value: c.value(k)})
			}
			r.rw = append(r.rw, i)
			fp := footprint(&t, i+1)
			r.fps = append(r.fps, fp)
			r.nLock += len(fp)
			r.wkeys += len(t.WriteKeys)
		}
		r.reqs = append(r.reqs, req)
		r.resps = append(r.resps, resp)
	}
	return r
}

// footprint is a transaction's lock requests: write keys exclusive, the
// read keys it does not also write shared. seq is its ID and its
// wound-wait priority (smaller is older).
func footprint(t *workload.Txn, seq int) []locks.Request {
	id := locks.TxnID{Seq: uint64(seq)}
	written := make(map[string]bool, len(t.WriteKeys))
	var fp []locks.Request
	for _, k := range t.WriteKeys {
		written[k] = true
		fp = append(fp, locks.Request{Txn: id, Key: k, Mode: locks.Exclusive, Prio: int64(seq)})
	}
	for _, k := range t.ReadKeys {
		if !written[k] {
			fp = append(fp, locks.Request{Txn: id, Key: k, Mode: locks.Shared, Prio: int64(seq)})
		}
	}
	return fp
}

func (r *replay) timeWire(m metrics) error {
	n := len(r.reqs)
	var buf []byte
	m.set("wire.req_encode_ns", perItem(replayPasses, n, func() {
		for _, req := range r.reqs {
			buf = wire.AppendRequest(buf[:0], req)
		}
	}), "ns")

	var stream bytes.Buffer
	for _, req := range r.reqs {
		if err := wire.WriteRequest(&stream, req); err != nil {
			return err
		}
	}
	reqBytes := stream.Len()
	var decodeErr error
	decode := func() {
		fr := wire.NewFrameReader(bytes.NewReader(stream.Bytes()), 0)
		for range r.reqs {
			if _, err := fr.ReadRequest(); err != nil {
				decodeErr = err
				return
			}
		}
	}
	m.set("wire.req_decode_ns", perItem(replayPasses, n, decode), "ns")
	m.set("wire.decode_allocs_per_req", ratio(float64(mallocs(decode)), float64(n)), "count")
	if decodeErr != nil {
		return decodeErr
	}

	respBytes := 0
	m.set("wire.resp_codec_ns", perItem(replayPasses, n, func() {
		respBytes = 0
		for _, resp := range r.resps {
			buf = wire.AppendResponse(buf[:0], resp)
			respBytes += len(buf) + 4
			if _, err := wire.DecodeResponse(buf); err != nil {
				decodeErr = err
			}
		}
	}), "ns")
	m.set("wire.bytes_per_op", ratio(float64(reqBytes+respBytes), float64(n)), "B")
	return decodeErr
}

// timeNetio times the server's response writer against a peer that discards,
// and the client's pipelined caller against a peer that answers each
// request with the response the server would send.
func (r *replay) timeNetio(m metrics) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// First connection: discard. Second: echo.
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, nc)
		nc.Close()
		nc, err = ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		cw := netio.NewConnWriter(nc)
		defer cw.Close()
		fr := wire.NewFrameReader(bufio.NewReader(nc), 0)
		for i := 0; ; i++ {
			req, err := fr.ReadRequest()
			if err != nil {
				return
			}
			resp := *r.resps[i%len(r.resps)]
			resp.ID = req.ID
			cw.Send(&resp)
		}
	}()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer nc.Close()
	m.set("netio.send_ns_per_frame", perItem(replayPasses, len(r.resps), func() {
		cw := netio.NewConnWriter(nc)
		for _, resp := range r.resps {
			cw.Send(resp)
		}
		cw.Close() // returns once every queued response is on the wire
	}), "ns")
	nc.Close()

	nc, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	cn := netio.NewConn(nc, 0)
	defer cn.Fail(netio.ErrClosed)
	rtts := make([]float64, 0, len(r.reqs))
	for _, req := range r.reqs {
		start := time.Now()
		if _, err := cn.Call(req); err != nil {
			return err
		}
		rtts = append(rtts, float64(time.Since(start).Nanoseconds())/1e3)
	}
	cn.Fail(netio.ErrClosed)
	<-done
	m.set("netio.call_rtt_us", median(rtts), "us")
	return nil
}

func (r *replay) timeLocks(m metrics) {
	lm := locks.NewManager()
	m.set("locks.acquire_release_ns", perItem(replayPasses, r.nLock, func() {
		for _, fp := range r.fps {
			for _, req := range fp {
				lm.Acquire(req)
			}
			lm.Flush()
			lm.ReleaseAll(fp[0].Txn)
			lm.Flush()
		}
	}), "ns")

	// Interleaved footprints: the younger of each pair of consecutive
	// transactions locks first, then the older one arrives, wounds it
	// where they overlap and takes over. On a wide keyspace pairs rarely
	// overlap and this equals the figure above; on hot keys it is the
	// wound path.
	lm = locks.NewManager()
	lm.OnWound = func(t locks.TxnID) { lm.ReleaseAll(t) }
	m.set("locks.contended_acquire_ns", perItem(replayPasses, r.nLock, func() {
		for j := 0; j+1 < len(r.fps); j += 2 {
			older, younger := r.fps[j], r.fps[j+1]
			for _, fp := range [][]locks.Request{younger, older} {
				for _, req := range fp {
					lm.Acquire(req)
				}
				lm.Flush()
			}
			lm.ReleaseAll(older[0].Txn)
			lm.ReleaseAll(younger[0].Txn)
			lm.Flush()
		}
	}), "ns")
}

// timeMVStore replays the stream's writes and reads into a store that already
// holds one shard's share of the keyspace.
func (r *replay) timeMVStore(m metrics, sz sizes) {
	st := mvstore.New()
	ts := truetime.Timestamp(1)
	for k := 0; k < sz.keys/numShards; k++ {
		key := workload.KeyName(uint64(k))
		st.Write(key, preloadValue(key), ts)
	}
	for _, t := range r.txns {
		for _, k := range t.ReadKeys {
			st.Write(k, preloadValue(k), ts)
		}
		for _, k := range t.WriteKeys {
			st.Write(k, preloadValue(k), ts)
		}
	}

	heap0 := settledHeap()
	start := time.Now()
	for _, i := range r.rw {
		for _, kv := range r.reqs[i].KVs {
			ts++
			st.Write(kv.Key, kv.Value, ts)
		}
	}
	m.set("mvstore.write_ns", ratio(float64(time.Since(start).Nanoseconds()), float64(r.wkeys)), "ns")
	m.set("mvstore.heap_b_per_version", ratio(float64(settledHeap())-float64(heap0), float64(r.wkeys)), "B")

	var sink int
	m.set("mvstore.read_at_ns", perItem(replayPasses, r.rkeys, func() {
		for i := range r.txns {
			if r.txns[i].IsReadOnly() {
				for _, k := range r.txns[i].ReadKeys {
					sink += len(st.ReadAt(k, ts).Value)
				}
			}
		}
	}), "ns")

	var chains []float64
	seen := map[string]bool{}
	for _, i := range r.rw {
		for _, kv := range r.reqs[i].KVs {
			if !seen[kv.Key] {
				seen[kv.Key] = true
				chains = append(chains, float64(st.Versions(kv.Key)))
			}
		}
	}
	sort.Float64s(chains)
	m.set("mvstore.versions_per_key_p99", percentile(chains, 99), "count")

	keys := 0
	start = time.Now()
	last := ""
	st.Dump(func(key string, v mvstore.Version) {
		if key != last {
			keys++
			last = key
		}
		sink += len(v.Value)
	})
	m.set("mvstore.dump_ms_per_mkey", ratio(float64(time.Since(start).Nanoseconds())/1e6, float64(keys)/1e6), "ms")
	runtime.KeepAlive(sink)
}

// timeWAL appends each read-write transaction's commit record and syncs it,
// one group commit per transaction — the batch a closed-loop client forms.
func (r *replay) timeWAL(m metrics, dataRoot string) error {
	dir, err := os.MkdirTemp(dataRoot, "replay-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer l.Close()
	n := len(r.rw)
	if n > 400 {
		n = 400
	}
	var appendNS, syncUS []float64
	for j := 0; j < n; j++ {
		req := r.reqs[r.rw[j]]
		start := time.Now()
		l.Append(wal.Record{Kind: wal.KindCommit, TxnID: req.TxnID, TS: int64(j + 1), Epoch: 1, Writes: req.KVs})
		mid := time.Now()
		if _, err := l.Sync(int64(j)); err != nil {
			return err
		}
		appendNS = append(appendNS, float64(mid.Sub(start).Nanoseconds()))
		syncUS = append(syncUS, float64(time.Since(mid).Nanoseconds())/1e3)
	}
	sort.Float64s(syncUS)
	m.set("wal.append_ns_per_record", median(appendNS), "ns")
	m.set("wal.sync_p50_us", percentile(syncUS, 50), "us")
	m.set("wal.sync_p99_us", percentile(syncUS, 99), "us")
	return nil
}

// recoverWAL times wal.Open on every shard directory the closed server
// left behind.
func recoverWAL(m metrics, dataDir string) error {
	shards, err := filepath.Glob(filepath.Join(dataDir, "shard-*"))
	if err != nil {
		return err
	}
	var bytes int64
	var spent time.Duration
	for _, dir := range shards {
		files, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, f := range files {
			if info, err := f.Info(); err == nil {
				bytes += info.Size()
			}
		}
		start := time.Now()
		l, _, err := wal.Open(wal.Config{Dir: dir})
		if err != nil {
			return fmt.Errorf("recover %s: %w", dir, err)
		}
		spent += time.Since(start)
		l.Close()
	}
	m.set("wal.recover_ms_per_mb", ratio(float64(spent.Nanoseconds())/1e6, float64(bytes)/1e6), "ms")
	return nil
}

// timeReplication appends each read-write transaction's commit entry to a
// group with one in-process follower and waits for its acknowledgment.
func (r *replay) timeReplication(m metrics) {
	g := replication.NewGroup(0, 1, replication.Chaos{})
	defer g.Close()
	base := truetime.Timestamp(time.Now().UnixNano())
	var appendNS, ackUS []float64
	for j, i := range r.rw {
		ts := base + truetime.Timestamp(j)
		batch := []replication.Entry{{Kind: replication.EntryCommit, TxnID: r.reqs[i].TxnID, TS: ts, Watermark: ts - 1, Writes: r.reqs[i].KVs}}
		start := time.Now()
		seq := g.AppendBatch(batch)
		mid := time.Now()
		g.WaitAcked(seq, nil)
		appendNS = append(appendNS, float64(mid.Sub(start).Nanoseconds()))
		ackUS = append(ackUS, float64(time.Since(mid).Nanoseconds())/1e3)
	}
	m.set("replication.append_ns_per_entry", median(appendNS), "ns")
	m.set("replication.ack_wait_p50_us", median(ackUS), "us")
}

// commitWait times Spanner's commit wait on the workload's clock: how much
// longer WallClock.WaitUntilAfter takes than the 2ε it was asked for.
func commitWait(m metrics, eps time.Duration) {
	clk := truetime.NewWallClock(eps)
	over := make([]float64, 200)
	for i := range over {
		now := clk.Now()
		asked := time.Duration(now.Latest - now.Earliest)
		start := time.Now()
		clk.WaitUntilAfter(now.Latest)
		over[i] = float64((time.Since(start) - asked).Nanoseconds()) / 1e3
	}
	m.set("truetime.wait_overshoot_us", median(over), "us")
}

// absentRows are the replay rows of layers a stack may not have; they read
// zero on a workload whose stack leaves the layer out.
var absentRows = map[string]string{
	"wal.append_ns_per_record":        "ns",
	"wal.sync_p50_us":                 "us",
	"wal.sync_p99_us":                 "us",
	"wal.recover_ms_per_mb":           "ms",
	"replication.append_ns_per_entry": "ns",
	"replication.ack_wait_p50_us":     "us",
}

// replayLayers closes the stack — recovery needs its directory at rest, and
// the replay wants the CPUs to itself — and fills in the R rows.
func replayLayers(m metrics, st *stack) error {
	w, sz := st.w, st.sz
	st.srv.Close()
	for row, unit := range absentRows {
		m.set(row, 0, unit)
	}
	r := newReplay(w, sz, st.seed)
	if w.durable {
		if err := recoverWAL(m, st.dir); err != nil {
			return err
		}
		if err := r.timeWAL(m, st.root); err != nil {
			return err
		}
	}
	st.close()
	runtime.GC()

	gen := workload.NewRetwis(w.chooser(sz))
	rng := rand.New(rand.NewSource(st.seed))
	m.set("loadgen.gen_ns_per_op", perItem(replayPasses, sz.replayOps, func() {
		for i := 0; i < sz.replayOps; i++ {
			gen.Next(rng)
		}
	}), "ns")
	if err := r.timeWire(m); err != nil {
		return err
	}
	if err := r.timeNetio(m); err != nil {
		return err
	}
	r.timeLocks(m)
	r.timeMVStore(m, sz)
	if w.replicas > 1 {
		r.timeReplication(m)
	}
	commitWait(m, w.eps)
	return nil
}

// tracedPass produces the per-layer metrics: an untraced reference window
// and a traced one, each a third of the run's length, the traced one
// bracketed by scrapes of the server's registry; then, with the stack
// closed, WAL recovery on the directory it left and the layer replay.
func tracedPass(st *stack, v verdict, dur time.Duration, out string) (*report, error) {
	w, sz := st.w, st.sz
	sub := dur / 3
	if sub < sz.slice {
		sub = sz.slice
	}
	ref, err := st.measure(sub, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: reference window: %w", w.name, err)
	}
	before, err := kvclient.ScrapeMetrics(st.srv.Addr(), 0)
	if err != nil {
		return nil, err
	}
	lanes := len(st.clients)
	if w.open {
		lanes = openSlots
	}
	trs := newTracers(lanes)
	win, err := st.measure(sub, trs)
	if err != nil {
		return nil, fmt.Errorf("%s: traced window: %w", w.name, err)
	}
	after, err := kvclient.ScrapeMetrics(st.srv.Addr(), 0)
	if err != nil {
		return nil, err
	}
	rep, err := account(win)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	ckpts, _ := obs.FindHist(after, "wal.checkpoint_dur")
	logf("%s: WAL bytes synced since start: %d before the traced window, %d after; %d checkpoints",
		w.name, obs.FindCounter(before, "wal.bytes"), obs.FindCounter(after, "wal.bytes"), ckpts.Count)

	m := metrics{}
	rep.Metrics = m
	roP50, rwP50 := win.medians()
	s := scrapeDelta(before, after)
	serverMetrics(m, s, win, roP50, rwP50)
	t := win.totals()
	m.set("ro.follower_frac", ratio(float64(t.followers), float64(t.reads)), "frac")
	m.set("trace.overhead_frac", 1-ratio(float64(t.ops), float64(ref.totals().ops)), "frac")
	for name, v := range timings(ref.slices()) {
		m[name] = v
	}
	lag := make([]float64, len(win.schedLag))
	for i, ns := range win.schedLag {
		lag[i] = float64(ns) / 1e3
	}
	sort.Float64s(lag)
	m.set("loadgen.sched_lag_p99_us", percentile(lag, 99), "us")
	m.set("diag.setup_work_s", st.work.Seconds(), "s")
	m.set("history.check_us_per_op", ratio(float64(v.checkDur.Microseconds()), float64(v.ops)), "us")
	m.set("history.check_allocs_per_op", ratio(float64(v.allocs), float64(v.ops)), "count")

	path, err := writeSpans(out, w.name, trs)
	if err != nil {
		return nil, err
	}
	logf("%s: spans written to %s", w.name, path)

	if err := replayLayers(m, st); err != nil {
		return nil, err
	}
	budget(m, s, roP50, rwP50)
	return rep, nil
}
