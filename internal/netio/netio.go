// Package netio is the socket plumbing shared by the daemons (rsskvd, the
// queue server) and their clients (kvclient, queueclient): a batching
// response writer for the server side of a pipelined connection, and a
// pipelined caller for the client side. Both ends follow the same
// discipline — one goroutine owns the socket's write half, one owns the
// read half, and everyone else communicates through queues — so neither a
// slow peer nor a burst of concurrent operations can block an event loop.
package netio

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rsskv/internal/obs"
	"rsskv/internal/wire"
)

// maxQueuedResponses bounds the per-connection response backlog. A client
// that pipelines requests but never reads responses would otherwise grow
// the queue without limit while the flusher blocks on the full TCP send
// buffer; past the bound the connection is torn down instead.
const maxQueuedResponses = 1 << 16

// writeTimeout bounds each flush batch, so a client that keeps its socket
// open but never reads responses cannot pin a handler goroutine (and its
// fd) forever on a full TCP send buffer.
const writeTimeout = 30 * time.Second

// maxEncodeScratch caps the flusher's reusable encode buffer. Responses
// beyond it (replication catch-up snapshots can carry a whole shard
// store) are encoded into a one-off allocation instead of pinning a
// snapshot-sized buffer to the connection for its lifetime.
const maxEncodeScratch = 1 << 20

// ConnWriter serializes responses onto one server-side connection. Send
// never blocks (the queue is unbounded up to maxQueuedResponses); a flusher
// goroutine drains it and batches socket writes, flushing when the queue
// empties.
type ConnWriter struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*wire.Response
	closed bool
	nc     net.Conn
	done   chan struct{} // closed when the flusher returns

	// batchHist, when set, records each flush batch's occupancy — how
	// many responses one socket write carried. It is observed once per
	// flush (not per response), so the hook costs the hot path nothing.
	batchHist atomic.Pointer[obs.Histogram]
}

// ObserveBatches records flush batch sizes into h (nil detaches). Safe to
// call while the writer is live.
func (cw *ConnWriter) ObserveBatches(h *obs.Histogram) { cw.batchHist.Store(h) }

// NewConnWriter starts a writer for nc.
func NewConnWriter(nc net.Conn) *ConnWriter {
	cw := &ConnWriter{nc: nc, done: make(chan struct{})}
	cw.cond = sync.NewCond(&cw.mu)
	go cw.flusher()
	return cw
}

// Send enqueues resp for delivery; after Close it drops resp (the peer is
// gone).
func (cw *ConnWriter) Send(resp *wire.Response) {
	cw.mu.Lock()
	if cw.closed {
		cw.mu.Unlock()
		return
	}
	cw.queue = append(cw.queue, resp)
	cw.cond.Signal()
	if len(cw.queue) > maxQueuedResponses {
		cw.queue = nil
		cw.closed = true
		cw.mu.Unlock()
		cw.nc.Close() // unblocks the flusher's write and the reader
		return
	}
	cw.mu.Unlock()
}

// Close stops the writer and waits until every already-queued response is
// on the wire (or the flusher failed), so the caller may close the socket
// without racing the flusher.
func (cw *ConnWriter) Close() {
	cw.mu.Lock()
	cw.closed = true
	cw.cond.Signal()
	cw.mu.Unlock()
	<-cw.done
}

// fail abandons undelivered responses after a write error and closes the
// socket, which unblocks the connection's reader: the peer sees a dropped
// connection instead of silently missing responses. Called from the
// flusher only.
func (cw *ConnWriter) fail() {
	cw.mu.Lock()
	cw.closed = true
	cw.queue = nil
	cw.mu.Unlock()
	cw.nc.Close()
}

func (cw *ConnWriter) flusher() {
	defer close(cw.done)
	bw := bufio.NewWriterSize(cw.nc, 64<<10)
	// scratch is the reusable encode buffer: the decode side reuses a
	// per-connection payload buffer (wire.FrameReader); this is its encode
	// twin, so a long-lived connection stops paying one allocation per
	// response (WriteResponse builds a fresh frame each call). It grows to
	// the largest response seen and stays there.
	var scratch []byte
	// spare is the previous batch, emptied: it becomes the queue while this
	// batch is on its way out, so a steady request rate alternates between
	// two backing arrays instead of growing a fresh one per drain.
	var spare []*wire.Response
	for {
		cw.mu.Lock()
		for len(cw.queue) == 0 && !cw.closed {
			cw.cond.Wait()
		}
		batch := cw.queue
		cw.queue = spare
		closed := cw.closed
		cw.mu.Unlock()
		if h := cw.batchHist.Load(); h != nil && len(batch) > 0 {
			h.Observe(int64(len(batch)))
		}
		cw.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
		for _, resp := range batch {
			scratch = wire.AppendResponse(wire.BeginFrame(scratch), resp)
			err := wire.WriteFrame(bw, scratch)
			if cap(scratch) > maxEncodeScratch {
				scratch = nil // outsized one-off (e.g. a snapshot): don't pin it
			}
			if err != nil {
				cw.fail()
				return
			}
		}
		if err := bw.Flush(); err != nil {
			cw.fail()
			return
		}
		if closed && len(batch) == 0 {
			return
		}
		clear(batch) // the responses are on the wire: don't pin them
		spare = batch[:0]
	}
}

// Conn is one client-side pipelined connection: a writer goroutine batches
// outbound frames, a reader goroutine routes responses by request ID. Many
// goroutines may Call concurrently; responses return in whatever order the
// server completes them.
type Conn struct {
	nc       net.Conn
	maxFrame int

	mu      sync.Mutex
	cond    *sync.Cond
	out     []*wire.Request
	pending map[uint64]chan *wire.Response
	// slots are idle one-slot response channels. A call costs its Request
	// and nothing else: the channel it waits on comes from here and goes
	// back when the response has been received.
	slots  []chan *wire.Response
	nextID uint64
	err    error
	closed bool
}

// NewConn starts the writer and reader goroutines for nc. Frames over
// maxFrame are refused locally (requests) or kill the connection
// (responses).
func NewConn(nc net.Conn, maxFrame int) *Conn {
	if maxFrame <= 0 {
		maxFrame = wire.MaxFrame
	}
	cn := &Conn{nc: nc, maxFrame: maxFrame, pending: map[uint64]chan *wire.Response{}}
	cn.cond = sync.NewCond(&cn.mu)
	go cn.writer()
	go cn.reader()
	return cn
}

// Call assigns a request ID, enqueues req, and waits for its response.
func (cn *Conn) Call(req *wire.Request) (*wire.Response, error) {
	cn.mu.Lock()
	if cn.closed {
		err := cn.err
		cn.mu.Unlock()
		return nil, err
	}
	cn.nextID++
	req.ID = cn.nextID
	var ch chan *wire.Response
	if n := len(cn.slots); n > 0 {
		ch, cn.slots = cn.slots[n-1], cn.slots[:n-1]
	} else {
		ch = make(chan *wire.Response, 1)
	}
	cn.pending[req.ID] = ch
	cn.out = append(cn.out, req)
	cn.cond.Signal()
	cn.mu.Unlock()

	resp, ok := <-ch
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if !ok {
		return nil, cn.err // Fail closed ch: it must never be reused
	}
	// Safe to recycle: deliver took ch out of pending before its one send,
	// that send has just been received, and Fail only closes channels still
	// in pending — nobody else can reach ch any more.
	cn.slots = append(cn.slots, ch)
	return resp, nil
}

// Failed reports whether the connection is dead (a candidate for
// replacement in a pool).
func (cn *Conn) Failed() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.closed
}

// LastErr returns the error the connection failed with.
func (cn *Conn) LastErr() error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.err
}

// Fail closes the connection once, waking every pending caller with err.
func (cn *Conn) Fail(err error) {
	cn.mu.Lock()
	if cn.closed {
		cn.mu.Unlock()
		return
	}
	cn.closed = true
	cn.err = err
	for _, ch := range cn.pending {
		close(ch)
	}
	cn.pending = nil
	cn.cond.Signal()
	cn.mu.Unlock()
	cn.nc.Close()
}

func (cn *Conn) writer() {
	bw := bufio.NewWriterSize(cn.nc, 64<<10)
	var scratch []byte
	var spare []*wire.Request // the previous batch, emptied (see ConnWriter.flusher)
	for {
		cn.mu.Lock()
		for len(cn.out) == 0 && !cn.closed {
			cn.cond.Wait()
		}
		if cn.closed {
			cn.mu.Unlock()
			return
		}
		batch := cn.out
		cn.out = spare
		cn.mu.Unlock()
		for _, req := range batch {
			// Encode before writing so a single oversized request can
			// fail on its own instead of poisoning the pipelined
			// connection (the server would drop the whole connection on
			// an over-limit frame without a response).
			scratch = wire.AppendRequest(wire.BeginFrame(scratch), req)
			if n := len(scratch) - wire.FrameHeaderLen; n > cn.maxFrame {
				cn.deliver(&wire.Response{
					ID: req.ID, Op: req.Op,
					Err: fmt.Sprintf("request frame %d bytes exceeds limit %d", n, cn.maxFrame),
				})
				continue
			}
			if err := wire.WriteFrame(bw, scratch); err != nil {
				cn.Fail(err)
				return
			}
		}
		if err := bw.Flush(); err != nil {
			cn.Fail(err)
			return
		}
		clear(batch) // sent: the requests are their callers' again, don't pin them
		spare = batch[:0]
	}
}

// deliver routes a locally-generated response to its pending caller.
func (cn *Conn) deliver(resp *wire.Response) {
	cn.mu.Lock()
	ch := cn.pending[resp.ID]
	delete(cn.pending, resp.ID)
	cn.mu.Unlock()
	if ch != nil {
		ch <- resp
	}
}

func (cn *Conn) reader() {
	fr := wire.NewFrameReader(bufio.NewReaderSize(cn.nc, 64<<10), cn.maxFrame)
	for {
		resp, err := fr.ReadResponse()
		if err != nil {
			cn.Fail(fmt.Errorf("netio: connection lost: %w", err))
			return
		}
		cn.deliver(resp)
	}
}

// ErrClosed reports an operation on a closed Pool. The client packages
// re-export it so errors.Is works against either name.
var ErrClosed = errors.New("netio: client closed")

// Pool is a fixed-size pool of pipelined connections with lazy redial:
// many goroutines share the slots round-robin, and a slot whose
// connection failed is redialed on its next use, so one broken connection
// degrades a long-lived client only until the server is reachable again.
type Pool struct {
	addr     string
	size     int
	maxFrame int
	next     atomic.Uint64

	mu     sync.Mutex
	slots  []*Conn
	closed bool
}

// DialPool connects size pipelined connections to addr (frames bounded by
// maxFrame, wire.MaxFrame if <= 0). On a partial failure the
// already-dialed connections are torn down.
func DialPool(addr string, size, maxFrame int) (*Pool, error) {
	if size <= 0 {
		size = 1
	}
	p := &Pool{addr: addr, size: size, maxFrame: maxFrame}
	for i := 0; i < size; i++ {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.slots = append(p.slots, NewConn(nc, maxFrame))
	}
	return p, nil
}

// Close tears down every connection; in-flight calls fail with ErrClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	slots := p.slots
	p.mu.Unlock()
	for _, cn := range slots {
		cn.Fail(ErrClosed)
	}
}

// Call sends one request on the next pooled connection and waits for its
// response. It performs no OK checking.
func (p *Pool) Call(req *wire.Request) (*wire.Response, error) {
	cn, err := p.conn(int(p.next.Add(1) % uint64(p.size)))
	if err != nil {
		return nil, err
	}
	return cn.Call(req)
}

// conn returns pool slot i, redialing it if its connection has failed.
// The dial happens outside the pool mutex so a dead slot's (possibly
// slow) reconnect never stalls operations on healthy slots.
func (p *Pool) conn(i int) (*Conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	cn := p.slots[i]
	p.mu.Unlock()
	if !cn.Failed() {
		return cn, nil
	}
	nc, err := net.Dial("tcp", p.addr)
	if err != nil {
		return nil, cn.LastErr()
	}
	fresh := NewConn(nc, p.maxFrame)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		fresh.Fail(ErrClosed)
		return nil, ErrClosed
	}
	if cur := p.slots[i]; cur != cn && !cur.Failed() {
		// A concurrent caller already replaced the slot; use theirs.
		fresh.Fail(ErrClosed)
		return cur, nil
	}
	p.slots[i] = fresh
	return fresh, nil
}
