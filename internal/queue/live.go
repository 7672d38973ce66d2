// Live (socketed) queue service: the networked counterpart of the
// simulator's Leader in queue.go, serving the paper's second service
// (Figure 1) over the wire protocol. A single apply loop sequences every
// enqueue and dequeue — the leader-sequenced log that makes the service
// linearizable and its real-time fence the no-op of §4.1 — and each state
// change is appended to a live replication group (internal/replication),
// the same transport the KV shards use, so acceptor loss and ack-path loss
// are testable with the Kill/DropAcks hooks.
//
// The in-process leader is authoritative: followers are warm standbys
// whose acknowledged watermark reports replication lag, mirroring the KV
// side. A dead or detached acceptor never blocks the loop (Append is
// non-blocking by contract), so an acknowledged enqueue survives any
// number of acceptor kills as long as the leader lives.
package queue

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"rsskv/internal/netio"
	"rsskv/internal/obs"
	"rsskv/internal/replication"
	"rsskv/internal/truetime"
	"rsskv/internal/wire"
)

// errServerClosed reports an operation racing a shutdown.
var errServerClosed = errors.New("queue server closed")

// replGroupID keeps the queue's replication group id outside any KV shard
// range, matching the simulator's convention.
const replGroupID = 1 << 20

// ServerConfig parameterizes a live queue server.
type ServerConfig struct {
	// MaxFrame bounds accepted request frames (default wire.MaxFrame).
	MaxFrame int
	// Acceptors is the number of backup replicas the leader-sequenced log
	// is appended to (default 0, unreplicated). Replication is
	// asynchronous: the leader never blocks on an acceptor.
	Acceptors int
}

// ServerStats are cumulative operation counters, updated atomically.
type ServerStats struct {
	Enqueues, Dequeues, Empties, Fences, Conns atomic.Int64
}

// Server is the networked queue daemon. Multiple named FIFO queues share
// one sequencer loop; clients select a queue with Request.Key.
type Server struct {
	cfg    ServerConfig
	ch     chan func()
	queues map[string]*fifo
	repl   *replication.Group
	seq    uint64 // log index; monotone across queues (loop-only)
	stats  ServerStats

	quit   chan struct{}
	wg     sync.WaitGroup
	loopWG sync.WaitGroup

	// Observability: the queue daemon's OpMetrics registry. Scrapes run
	// on the sequencer loop, so gauges may read loop-owned state.
	//
	//	enqueues/dequeues/empties/fences/conns  ctr    ServerStats mirrors
	//	queue.depth       hist   named queue's depth after each enq/deq
	//	loop.queue_depth  hist   sequencer channel depth at dequeue
	//	queue.depth_now   gauge  total queued elements across queues
	//	queue.acked_seq   gauge  highest acceptor-acknowledged log index
	reg       *obs.Registry
	qDepth    *obs.Histogram
	loopDepth *obs.Histogram

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
}

// fifo is one named queue's loop-owned state, mirroring the simulator
// Leader's ring.
type fifo struct {
	items   []item
	nextSeq int64
	head    int
}

// NewServer returns a queue server with a started sequencer loop. Call
// Start to accept connections and Close to shut down.
func NewServer(cfg ServerConfig) *Server {
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = wire.MaxFrame
	}
	s := &Server{
		cfg:    cfg,
		ch:     make(chan func(), 256),
		queues: map[string]*fifo{},
		quit:   make(chan struct{}),
		conns:  map[net.Conn]struct{}{},
	}
	if cfg.Acceptors > 0 {
		s.repl = replication.NewGroup(replGroupID, cfg.Acceptors, replication.Chaos{})
	}
	s.reg = obs.NewRegistry("queue")
	s.reg.CounterFunc("enqueues", s.stats.Enqueues.Load)
	s.reg.CounterFunc("dequeues", s.stats.Dequeues.Load)
	s.reg.CounterFunc("empties", s.stats.Empties.Load)
	s.reg.CounterFunc("fences", s.stats.Fences.Load)
	s.reg.CounterFunc("conns", s.stats.Conns.Load)
	s.reg.Gauge("queue.depth_now", func() int64 {
		var n int64
		for _, q := range s.queues { // loop-only; scrapes run on the loop
			n += int64(len(q.items) - q.head)
		}
		return n
	})
	s.reg.Gauge("queue.acked_seq", s.AckedWatermark)
	s.qDepth = s.reg.Hist("queue.depth")
	s.loopDepth = s.reg.Hist("loop.queue_depth")
	s.loopWG.Add(1)
	go s.loop()
	return s
}

// Start listens on addr (":0" picks a free port) and serves in the
// background; Addr reports the bound address.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.reg.SetSource("queue@" + ln.Addr().String())
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.serve(ln)
	}()
	return nil
}

// Addr returns the listening address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Stats returns the server's counters.
func (s *Server) Stats() *ServerStats { return &s.stats }

// Acceptors returns the configured backup count.
func (s *Server) Acceptors() int { return s.cfg.Acceptors }

// KillAcceptor simulates the loss of backup i: it stops applying and
// acknowledging. The leader keeps serving; acknowledged enqueues are
// unaffected. It reports whether such an acceptor existed.
func (s *Server) KillAcceptor(i int) bool {
	if s.repl == nil {
		return false
	}
	f := s.repl.Transport(i)
	if f == nil {
		return false
	}
	f.Kill()
	return true
}

// DropAcceptorAcks severs backup i's acknowledgment path while it keeps
// applying: its advertised watermark freezes, surfacing as replication
// lag. It reports whether such an acceptor existed.
func (s *Server) DropAcceptorAcks(i int) bool {
	if s.repl == nil {
		return false
	}
	f := s.repl.Transport(i)
	if f == nil {
		return false
	}
	f.DropAcks()
	return true
}

// DropConns severs every established client connection while the
// listener keeps accepting — the "network blip" failure client pools must
// recover from (testing).
func (s *Server) DropConns() {
	s.mu.Lock()
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
}

// AckedWatermark returns the highest log index acknowledged by any live
// acceptor (0 when unreplicated) — the replication-lag gauge.
func (s *Server) AckedWatermark() int64 {
	if s.repl == nil {
		return 0
	}
	return int64(s.repl.TSafe())
}

// Len returns the number of queued elements in the named queue (testing
// and stats; serialized through the loop).
func (s *Server) Len(queue string) int {
	n := make(chan int, 1)
	if !s.run(func() {
		q := s.queues[queue]
		if q == nil {
			n <- 0
			return
		}
		n <- len(q.items) - q.head
	}) {
		return 0
	}
	select {
	case v := <-n:
		return v
	case <-s.quit:
		return 0
	}
}

// Close shuts the server down: stop accepting, close every connection,
// wait for handlers to drain, then stop the loop and the replication
// transports (the loop is the only appender, so the order is safe).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	close(s.quit)
	s.loopWG.Wait()
	if s.repl != nil {
		s.repl.Close()
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) serve(ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.stats.Conns.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(nc)
		}()
	}
}

// handleConn reads framed requests and runs each on the sequencer loop.
// Responses are produced inside the loop (the linearization point) and
// delivered through the batching writer, so one connection can pipeline
// many operations.
func (s *Server) handleConn(nc net.Conn) {
	cw := netio.NewConnWriter(nc)
	fr := wire.NewFrameReader(bufio.NewReaderSize(nc, 64<<10), s.cfg.MaxFrame)
	var pending sync.WaitGroup
	for {
		req, err := fr.ReadRequest()
		if err != nil {
			break
		}
		s.dispatch(req, cw, &pending)
	}
	pending.Wait()
	cw.Close()
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	nc.Close()
}

func (s *Server) dispatch(req *wire.Request, cw *netio.ConnWriter, pending *sync.WaitGroup) {
	var fn func()
	switch req.Op {
	case wire.OpEnqueue:
		fn = func() { s.enqueue(req, cw) }
	case wire.OpDequeue:
		fn = func() { s.dequeue(req, cw) }
	case wire.OpFence:
		// The queue is linearizable, so its §4.1 fence is semantically a
		// no-op; running it through the loop still gives the caller a
		// completed-barrier guarantee for free.
		fn = func() {
			s.stats.Fences.Add(1)
			cw.Send(&wire.Response{ID: req.ID, Op: req.Op, OK: true, Version: int64(s.seq)})
		}
	case wire.OpMetrics:
		// On the loop so the depth gauges may read loop-owned state.
		fn = func() { cw.Send(obs.MetricsResponse(req, s.reg)) }
	default:
		cw.Send(&wire.Response{
			ID: req.ID, Op: req.Op,
			Err: fmt.Sprintf("op %v not served by the queue service", req.Op),
		})
		return
	}
	pending.Add(1)
	if !s.run(func() { fn(); pending.Done() }) {
		cw.Send(&wire.Response{ID: req.ID, Op: req.Op, Err: errServerClosed.Error()})
		pending.Done()
	}
}

// enqueue assigns the next sequence number of the named queue, replicates,
// and acknowledges. Loop-only.
func (s *Server) enqueue(req *wire.Request, cw *netio.ConnWriter) {
	q := s.queues[req.Key]
	if q == nil {
		q = &fifo{}
		s.queues[strings.Clone(req.Key)] = q // the queue outlives the request's frame
	}
	q.nextSeq++
	seq := q.nextSeq
	q.items = append(q.items, item{seq: seq, value: req.Value})
	s.qDepth.Observe(int64(len(q.items) - q.head))
	s.replicate(req.Key+"#"+strconv.FormatInt(seq, 10), req.Value)
	s.stats.Enqueues.Add(1)
	cw.Send(&wire.Response{ID: req.ID, Op: req.Op, OK: true, Version: seq})
}

// dequeue pops the named queue's head, replicates the consumption, and
// returns the element (or Empty). Loop-only.
func (s *Server) dequeue(req *wire.Request, cw *netio.ConnWriter) {
	s.stats.Dequeues.Add(1)
	q := s.queues[req.Key]
	if q == nil || q.head == len(q.items) {
		s.stats.Empties.Add(1)
		cw.Send(&wire.Response{ID: req.ID, Op: req.Op, OK: true, Empty: true})
		return
	}
	it := q.items[q.head]
	q.head++
	s.qDepth.Observe(int64(len(q.items) - q.head))
	if q.head > 1024 && q.head*2 > len(q.items) {
		q.items = append([]item(nil), q.items[q.head:]...)
		q.head = 0
	}
	s.replicate(req.Key+"#head", strconv.FormatInt(it.seq, 10))
	cw.Send(&wire.Response{ID: req.ID, Op: req.Op, OK: true, Value: it.value, Version: it.seq})
}

// replicate appends one state change to the acceptor log. The log index
// doubles as the entry timestamp and watermark: the queue has no clock,
// only an order. Loop-only; a no-op when unreplicated.
func (s *Server) replicate(key, value string) {
	s.seq++
	if s.repl == nil {
		return
	}
	ts := truetime.Timestamp(s.seq)
	s.repl.AppendBatch([]replication.Entry{{
		Kind: replication.EntryCommit, TxnID: s.seq, TS: ts, Watermark: ts,
		Writes: []wire.KV{{Key: key, Value: value}},
	}})
}

// loop drains submitted closures until Close.
func (s *Server) loop() {
	defer s.loopWG.Done()
	for {
		select {
		case fn := <-s.ch:
			s.loopDepth.Observe(int64(len(s.ch)))
			fn()
		case <-s.quit:
			return
		}
	}
}

// run submits fn to the sequencer loop, reporting whether it was accepted.
func (s *Server) run(fn func()) bool {
	select {
	case s.ch <- fn:
		return true
	case <-s.quit:
		return false
	}
}
