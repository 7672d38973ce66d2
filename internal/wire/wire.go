// Package wire is the compact binary protocol spoken between rsskvd and
// its clients (package kvclient).
//
// Every message travels as one frame: a 4-byte big-endian payload length
// followed by the payload. The payload begins with a one-byte opcode and a
// varint request ID; the remaining fields depend on the opcode. Strings are
// length-prefixed with unsigned varints, signed integers use zig-zag
// varints. Request IDs exist so a client can pipeline many requests on one
// connection and match responses that the server completes out of order.
//
// The protocol is deliberately one-shot: a transaction's read set and write
// set travel in a single Commit frame, so a transaction costs one round
// trip regardless of how many shards it touches. BeginTxn only reserves a
// transaction ID, whose value doubles as the wound-wait priority — retrying
// an aborted commit under the same ID keeps the transaction's age, which is
// what makes the retry loop livelock-free.
//
// # Who owns a decoded string
//
// DecodeRequest and DecodeResponse copy a payload at most once — the frame's
// arena, made the first time a non-empty string is decoded — and hand out
// keys, Key, Err and response values as sub-strings of it. A decoded string
// is therefore a view: it stays valid for as long as anyone holds it, but
// it keeps the whole arena alive with it. A request or a response is
// short-lived, so that is the cheap default; the rule that keeps memory
// flat is that whatever enters a structure that outlives the message is
// copied exactly once on the way in (strings.Clone), at the place that
// retains it rather than at every use: mvstore.Write clones a key it
// inserts, the server clones write keys into the replication log, the queue
// service clones a new queue's name, kvclient clones a leader address it
// adopts. The one exception is decided here because it is always retained:
// a request's Value and its KVs' values go into the version store, so they
// are decoded as copies of their own and the store, the prepared set, the
// replication log and an in-process follower all share that copy. The
// nested payload codecs (repl.go, metrics.go) copy every string: what they
// decode is installed whole into a replica or kept as a snapshot.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Op is a message opcode. Requests and responses share the opcode space;
// a response's opcode always echoes its request's.
type Op uint8

// Opcodes.
const (
	// OpGet reads one key.
	OpGet Op = iota + 1
	// OpPut writes one key.
	OpPut
	// OpBeginTxn reserves a transaction ID (the wound-wait priority).
	OpBeginTxn
	// OpCommit executes a one-shot transaction: lock the read and write
	// sets everywhere, read, write, release.
	OpCommit
	// OpFence is the RSS real-time fence (§4.1): it completes only after
	// every operation the server accepted before it has been applied.
	OpFence
	// OpMultiGet reads a batch of keys atomically (a read-only
	// transaction).
	OpMultiGet
	// OpMultiPut writes a batch of keys atomically (a write-only
	// transaction).
	OpMultiPut
	// OpROTxn reads a batch of keys as a lock-free snapshot read-only
	// transaction (§5): the server picks a read timestamp no lower than
	// the request's TMin, serves versioned reads without acquiring locks,
	// and returns the snapshot timestamp in Response.Version so the client
	// can advance its session t_min.
	OpROTxn
	// OpEnqueue appends Value to the FIFO queue named Key at the queue
	// service; the response carries the assigned sequence number in
	// Version. The queue is leader-sequenced and linearizable, so its
	// real-time fence is the no-op of §4.1.
	OpEnqueue
	// OpDequeue pops the head of the FIFO queue named Key; the response
	// carries the element in Value and its sequence number in Version, or
	// the Empty flag when the queue had no elements.
	OpDequeue
	// OpReplEntry is a replication log pull, sent by an out-of-process
	// follower to its leader: Key is the follower's advertised read
	// address (its identity), Value a per-boot nonce, TxnID the shard, and
	// Seq the last log position the follower holds — the leader answers
	// with the entries after it, encoded by AppendReplEntries into the
	// response's Value, the leader's shard count in the response's TxnID,
	// and the batch's last position in the response's Seq. A pull below
	// the leader's retained log fails with ErrMsgSnapshotRequired: the
	// follower must catch up via OpReplSnapshot instead.
	OpReplEntry
	// OpReplAck reports a follower's applied progress to its leader: Key
	// and Value identify the follower as in OpReplEntry, TxnID the shard,
	// Seq the last applied log position, and TMin the applied safe-time
	// watermark. Acks ride their own messages (not the pulls) so the ack
	// path can fail independently of replication — the DropAcks failure
	// mode.
	OpReplAck
	// OpReplRead is a snapshot read served by a follower replica, sent by
	// the leader over its dial-back connection: TxnID the shard, TMin the
	// read timestamp, Keys the key set. The follower parks until its
	// applied watermark covers the timestamp, then answers with versioned
	// reads encoded by AppendReplVals into the response's Value; a
	// follower that cannot serve in time responds with OK false.
	OpReplRead
	// OpReplSnapshot ships a follower a consistent copy of a shard store
	// for catch-up: Key/Value/TxnID as in OpReplEntry. The response
	// carries every version of every key (AppendReplVals) in Value, the
	// log position the snapshot reflects in Seq (replay resumes after
	// it), and the safe-time watermark at the snapshot point in Version.
	OpReplSnapshot
	// OpMetrics scrapes a process's metrics registry: counters, gauges,
	// and latency histograms for every serving stage, encoded by
	// AppendMetricsPayload into the response's Value. All three daemon
	// personalities (kv leader, queue service, replica node) answer it,
	// which is what lets rssbench assemble one merged cross-process
	// snapshot.
	OpMetrics
	// OpPromote installs a shard-group view {Epoch, leader}: Epoch is the
	// new view's epoch and Value the new leader's client-serving address.
	// Sent to a replica node whose advertise address matches Value, it
	// triggers promotion: catch up, fence the old epoch, start serving.
	// Sent to a kv leader carrying a higher epoch than its own, it is a
	// step-down order: the leader fences itself and answers NotLeader from
	// then on. Sent to any other replica, it retargets the replica's log
	// pulls at the new leader. Responses echo the view actually installed
	// (Epoch + leader address in Value).
	OpPromote
	// OpView queries a process's current view of a shard group: the
	// response carries the epoch in Epoch and the leader's client-serving
	// address in Value. Clients use it to re-locate the leader after a
	// NotLeader rejection or a dead connection; every daemon personality
	// answers it.
	OpView
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpBeginTxn:
		return "begin-txn"
	case OpCommit:
		return "commit"
	case OpFence:
		return "fence"
	case OpMultiGet:
		return "multi-get"
	case OpMultiPut:
		return "multi-put"
	case OpROTxn:
		return "ro-txn"
	case OpEnqueue:
		return "enqueue"
	case OpDequeue:
		return "dequeue"
	case OpReplEntry:
		return "repl-entry"
	case OpReplAck:
		return "repl-ack"
	case OpReplRead:
		return "repl-read"
	case OpReplSnapshot:
		return "repl-snapshot"
	case OpMetrics:
		return "metrics"
	case OpPromote:
		return "promote"
	case OpView:
		return "view"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

func (o Op) valid() bool { return o >= OpGet && o <= OpView }

// KV is a key-value pair in a batched write or a batched read result.
type KV struct {
	Key   string
	Value string
}

// Request is a client→server message.
type Request struct {
	// ID matches the response to this request on a pipelined connection.
	ID uint64
	// Op selects the operation and which fields below are meaningful.
	Op Op
	// TxnID carries the reserved transaction ID on OpCommit (0 lets the
	// server assign a fresh one).
	TxnID uint64
	// Key and Value are the OpGet / OpPut operands.
	Key   string
	Value string
	// Keys is the read set (OpCommit) or the batch (OpMultiGet, OpROTxn).
	Keys []string
	// KVs is the write set (OpCommit) or the batch (OpMultiPut).
	KVs []KV
	// TMin is the client session's minimum read timestamp on OpROTxn
	// (§5, Algorithm 1): the server serves the snapshot at a read
	// timestamp no lower than TMin, preserving the session's causality.
	// The replication opcodes reuse it as a watermark (see OpReplAck) or
	// a read timestamp (OpReplRead).
	TMin int64
	// Seq is a replication log position: the last position a follower
	// holds on OpReplEntry, the last position applied on OpReplAck. Zero
	// elsewhere.
	Seq uint64
	// Epoch is the view epoch on OpPromote (the epoch of the view being
	// installed). Zero elsewhere.
	Epoch uint64
}

// Response is a server→client message.
type Response struct {
	// ID echoes the request ID.
	ID uint64
	// Op echoes the request opcode.
	Op Op
	// OK reports success. A committed transaction has OK true; a
	// transaction wounded by an older conflicting transaction has OK
	// false with Err "aborted" and should be retried under the same
	// TxnID.
	OK bool
	// Err describes the failure when OK is false.
	Err string
	// TxnID returns the reserved ID on OpBeginTxn responses.
	TxnID uint64
	// Value is the OpGet result ("" for a never-written key).
	Value string
	// Version is the server-assigned serialization point: the commit
	// timestamp of a write or transaction, or the timestamp of the
	// version a read observed (0 for a never-written key).
	Version int64
	// KVs returns the read values of OpCommit and OpMultiGet.
	KVs []KV
	// Follower reports that an OpROTxn was served entirely by follower
	// replicas bounded by their replicated t_safe — zero leader
	// involvement. Clients use it to account follower-read traffic.
	Follower bool
	// Empty reports that an OpDequeue found the queue empty. It is a flag
	// rather than a sentinel value because "" is a legal queue element.
	Empty bool
	// Overloaded reports that admission control rejected the request
	// before it touched any state: no locks were acquired, nothing was
	// appended to the WAL or the replication log, and the operation is
	// safe to retry. It is a flag rather than an Err string match so
	// clients can distinguish shed load (back off and retry) from real
	// failures without parsing text.
	Overloaded bool
	// RetryAfterUS is the server's backoff hint in microseconds on an
	// Overloaded response: roughly how long until the admission gate
	// expects to have capacity again. Zero means "no estimate"; clients
	// fall back to their own backoff schedule.
	RetryAfterUS int64
	// Seq is a replication log position: the last position of the batch
	// on OpReplEntry, the position an OpReplSnapshot reflects (replay
	// resumes after it). Zero elsewhere.
	Seq uint64
	// Vers carries the per-key version timestamps of KVs (parallel
	// slices; 0 for a never-written key) on OpCommit, OpMultiGet, and
	// OpROTxn responses. They are the read's version witnesses: a
	// recorded history merged across a crash uses them to place every
	// observed value on its version chain even when the writing
	// operation's own response was lost to the crash.
	Vers []int64
	// NotLeader reports that this process has been fenced out of the
	// shard group's current view and refuses to serve: a newer epoch
	// exists. Value carries the new leader's address when known and Epoch
	// the newest epoch this process has seen, so clients can redirect
	// without a separate view query. Like Overloaded, a NotLeader
	// rejection leaves zero lock/WAL/replication footprint and the
	// operation is safe to retry elsewhere.
	NotLeader bool
	// Epoch is the responding process's view epoch on OpView, OpPromote,
	// and NotLeader responses. Zero elsewhere.
	Epoch uint64
}

// Framing limits.
const (
	// MaxFrame is the default maximum payload size accepted by ReadFrame.
	// Size enforcement is the reader's job: writers only refuse payloads
	// whose length cannot be represented in the 4-byte header, so peers
	// configured with a larger limit interoperate.
	MaxFrame = 1 << 20
	// maxEncodable is the largest length the frame header can carry.
	maxEncodable = 1<<32 - 1
	// FrameHeaderLen is the frame header size: a 4-byte big-endian length.
	FrameHeaderLen = 4
)

// ErrMsgAborted is the Err value of a transactional response whose
// transaction was wounded by an older conflicting transaction; the client
// should retry under the TxnID the response carries, which preserves the
// transaction's wound-wait age.
const ErrMsgAborted = "aborted"

// ErrMsgOverloaded is the Err value of a response rejected by admission
// control before it touched any server state. The Overloaded flag carries
// the same fact structurally; the message exists so operators reading raw
// traces see it too. The client should back off (honoring RetryAfterUS
// when nonzero) and retry.
const ErrMsgOverloaded = "overloaded"

// ErrMsgNotLeader is the Err value of a response refused because the
// process has been fenced out of the current view. The NotLeader flag
// carries the same fact structurally; Value names the new leader when
// known.
const ErrMsgNotLeader = "not leader"

// Protocol errors.
var (
	// ErrTruncated reports a payload that ended before its fields did.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrFrameTooLarge reports a frame whose declared length exceeds the
	// reader's limit.
	ErrFrameTooLarge = errors.New("wire: frame too large")
	// ErrBadMessage reports a structurally invalid payload (unknown
	// opcode, implausible count, trailing garbage).
	ErrBadMessage = errors.New("wire: bad message")
)

// AppendRequest appends r's payload (no frame header) to buf.
func AppendRequest(buf []byte, r *Request) []byte {
	buf = append(buf, byte(r.Op))
	buf = binary.AppendUvarint(buf, r.ID)
	buf = binary.AppendUvarint(buf, r.TxnID)
	buf = appendString(buf, r.Key)
	buf = appendString(buf, r.Value)
	buf = binary.AppendUvarint(buf, uint64(len(r.Keys)))
	for _, k := range r.Keys {
		buf = appendString(buf, k)
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.KVs)))
	for _, kv := range r.KVs {
		buf = appendString(buf, kv.Key)
		buf = appendString(buf, kv.Value)
	}
	buf = binary.AppendVarint(buf, r.TMin)
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = binary.AppendUvarint(buf, r.Epoch)
	return buf
}

// requestBox co-allocates a Request with inline storage for small Keys
// and KVs lists. Decoded requests escape into asynchronous dispatch, so
// per-reader scratch reuse is off the table — but the three allocations a
// typical commit-shaped frame needed (Request, Keys backing, KVs backing)
// can still be collapsed into one. Slices handed out from the inline
// arrays stay valid exactly as long as the Request itself: they pin the
// box, and the box pins nothing else. The arrays are sized for the paper's
// Retwis shapes (up to 10 reads, up to 5 writes) within the 512 bytes the
// box occupied before.
type requestBox struct {
	req  Request
	keys [10]string
	kvs  [7]KV
}

// responseBox is the Response-side equivalent of requestBox: room for a
// ten-key read's results.
type responseBox struct {
	resp Response
	kvs  [10]KV
	vers [10]int64
}

// DecodeRequest parses a request payload produced by AppendRequest. Keys
// are views into one copy of the payload; Value and the KVs' values are
// copies of their own (see the package comment). payload may be reused as
// soon as DecodeRequest returns.
func DecodeRequest(payload []byte) (*Request, error) {
	d := decoder{b: payload}
	box := &requestBox{}
	r := &box.req
	r.Op = Op(d.byte())
	if !r.Op.valid() {
		return nil, fmt.Errorf("%w: unknown opcode %d", ErrBadMessage, r.Op)
	}
	r.ID = d.uvarint()
	r.TxnID = d.uvarint()
	r.Key = d.string()
	r.Value = d.owned()
	if n := d.count(); n > 0 {
		if n <= len(box.keys) {
			r.Keys = box.keys[:n]
		} else {
			r.Keys = make([]string, n)
		}
		for i := range r.Keys {
			r.Keys[i] = d.string()
		}
	}
	if n := d.count(); n > 0 {
		if n <= len(box.kvs) {
			r.KVs = box.kvs[:n]
		} else {
			r.KVs = make([]KV, n)
		}
		for i := range r.KVs {
			r.KVs[i].Key = d.string()
			r.KVs[i].Value = d.owned()
		}
	}
	r.TMin = d.varint()
	r.Seq = d.uvarint()
	r.Epoch = d.uvarint()
	if err := d.finish(); err != nil {
		return nil, err
	}
	return r, nil
}

// AppendResponse appends r's payload (no frame header) to buf.
func AppendResponse(buf []byte, r *Response) []byte {
	buf = append(buf, byte(r.Op))
	buf = binary.AppendUvarint(buf, r.ID)
	var flags byte
	if r.OK {
		flags |= 1
	}
	if r.Follower {
		flags |= 2
	}
	if r.Empty {
		flags |= 4
	}
	if r.Overloaded {
		flags |= 8
	}
	if r.NotLeader {
		flags |= 16
	}
	buf = append(buf, flags)
	buf = appendString(buf, r.Err)
	buf = binary.AppendUvarint(buf, r.TxnID)
	buf = appendString(buf, r.Value)
	buf = binary.AppendVarint(buf, r.Version)
	buf = binary.AppendUvarint(buf, uint64(len(r.KVs)))
	for _, kv := range r.KVs {
		buf = appendString(buf, kv.Key)
		buf = appendString(buf, kv.Value)
	}
	buf = binary.AppendUvarint(buf, r.Seq)
	buf = binary.AppendUvarint(buf, uint64(len(r.Vers)))
	for _, v := range r.Vers {
		buf = binary.AppendVarint(buf, v)
	}
	buf = binary.AppendVarint(buf, r.RetryAfterUS)
	buf = binary.AppendUvarint(buf, r.Epoch)
	return buf
}

// DecodeResponse parses a response payload produced by AppendResponse.
// Every string of the result is a view into one copy of the payload (see
// the package comment). payload may be reused as soon as DecodeResponse
// returns.
func DecodeResponse(payload []byte) (*Response, error) {
	d := decoder{b: payload}
	box := &responseBox{}
	r := &box.resp
	r.Op = Op(d.byte())
	if !r.Op.valid() {
		return nil, fmt.Errorf("%w: unknown opcode %d", ErrBadMessage, r.Op)
	}
	r.ID = d.uvarint()
	flags := d.byte()
	if flags > 31 {
		return nil, fmt.Errorf("%w: bad flags %d", ErrBadMessage, flags)
	}
	r.OK = flags&1 != 0
	r.Follower = flags&2 != 0
	r.Empty = flags&4 != 0
	r.Overloaded = flags&8 != 0
	r.NotLeader = flags&16 != 0
	r.Err = d.string()
	r.TxnID = d.uvarint()
	r.Value = d.string()
	r.Version = d.varint()
	if n := d.count(); n > 0 {
		if n <= len(box.kvs) {
			r.KVs = box.kvs[:n]
		} else {
			r.KVs = make([]KV, n)
		}
		for i := range r.KVs {
			r.KVs[i].Key = d.string()
			r.KVs[i].Value = d.string()
		}
	}
	r.Seq = d.uvarint()
	if n := d.count(); n > 0 {
		if n <= len(box.vers) {
			r.Vers = box.vers[:n]
		} else {
			r.Vers = make([]int64, n)
		}
		for i := range r.Vers {
			r.Vers[i] = d.varint()
		}
	}
	r.RetryAfterUS = d.varint()
	r.Epoch = d.uvarint()
	if err := d.finish(); err != nil {
		return nil, err
	}
	return r, nil
}

// WriteRequest frames and writes r. The caller provides buffering.
func WriteRequest(w io.Writer, r *Request) error {
	return WriteFrame(w, AppendRequest(BeginFrame(nil), r))
}

// WriteResponse frames and writes r. The caller provides buffering.
func WriteResponse(w io.Writer, r *Response) error {
	return WriteFrame(w, AppendResponse(BeginFrame(nil), r))
}

// BeginFrame empties buf and reserves the frame header in it. Append one
// payload (AppendRequest, AppendResponse) to the result and hand that to
// WriteFrame: header and payload then share the caller's one reusable
// buffer and leave in one Write.
func BeginFrame(buf []byte) []byte {
	return append(buf[:0], make([]byte, FrameHeaderLen)...)
}

// WriteFrame fills in the header BeginFrame reserved and writes the whole
// frame in one call. Callers that need the payload size before committing
// to the write — e.g. to fail one oversized request without poisoning a
// pipelined connection — check len(frame)-FrameHeaderLen first.
func WriteFrame(w io.Writer, frame []byte) error {
	n := len(frame) - FrameHeaderLen
	if uint64(n) > maxEncodable {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(frame[:FrameHeaderLen], uint32(n))
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one frame's payload. Frames larger than max (MaxFrame if
// max <= 0) yield ErrFrameTooLarge; a connection that closes mid-frame
// yields io.ErrUnexpectedEOF, and a clean close before any header byte
// yields io.EOF.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	if max <= 0 {
		max = MaxFrame
	}
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if uint64(n) > uint64(max) {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// ReadRequest reads and decodes one framed request.
func ReadRequest(r io.Reader, max int) (*Request, error) {
	payload, err := ReadFrame(r, max)
	if err != nil {
		return nil, err
	}
	return DecodeRequest(payload)
}

// ReadResponse reads and decodes one framed response.
func ReadResponse(r io.Reader, max int) (*Response, error) {
	payload, err := ReadFrame(r, max)
	if err != nil {
		return nil, err
	}
	return DecodeResponse(payload)
}

// FrameReader reads frames from one connection into a reusable payload
// buffer, so a long-lived connection stops paying one allocation per frame
// (ReadFrame allocates a fresh payload each call). Safe because a decoder
// never hands out a string that aliases its input: views point into the
// arena it copied from the buffer before returning, and the buffer is only
// overwritten by the next Read call. A FrameReader is not safe for
// concurrent use — it belongs to the single goroutine draining a
// connection.
type FrameReader struct {
	r   io.Reader
	max int
	buf []byte
	// hdr lives here, not on ReadFrame's stack: handing a local to r moves
	// it to the heap, once per frame.
	hdr [FrameHeaderLen]byte
}

// NewFrameReader wraps r with frame limit max (MaxFrame if max <= 0). The
// caller provides buffering (e.g. a bufio.Reader).
func NewFrameReader(r io.Reader, max int) *FrameReader {
	if max <= 0 {
		max = MaxFrame
	}
	return &FrameReader{r: r, max: max}
}

// ReadFrame reads one frame's payload into the shared buffer. The returned
// slice is valid only until the next call on this FrameReader.
func (fr *FrameReader) ReadFrame() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.hdr[:]))
	if n > fr.max {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, fr.max)
	}
	if cap(fr.buf) < n {
		// Grow geometrically so a ramp of frame sizes settles quickly,
		// without committing every connection to max-sized buffers.
		grow := 2 * cap(fr.buf)
		if grow < n {
			grow = n
		}
		if grow > fr.max {
			grow = fr.max
		}
		fr.buf = make([]byte, grow)
	}
	payload := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// ReadRequest reads and decodes one framed request via the shared buffer.
func (fr *FrameReader) ReadRequest() (*Request, error) {
	payload, err := fr.ReadFrame()
	if err != nil {
		return nil, err
	}
	return DecodeRequest(payload)
}

// ReadResponse reads and decodes one framed response via the shared buffer.
func (fr *FrameReader) ReadResponse() (*Response, error) {
	payload, err := fr.ReadFrame()
	if err != nil {
		return nil, err
	}
	return DecodeResponse(payload)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decoder walks a payload, latching the first error so call sites read
// field after field without per-call checks.
type decoder struct {
	b   []byte
	off int
	err error
	// arena is the one copy of b that string hands out views of, made at
	// the first non-empty string so a frame without strings (BeginTxn and
	// its answer) copies nothing.
	arena string
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail(ErrTruncated)
		return 0
	}
	b := d.b[d.off]
	d.off++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail(ErrTruncated)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail(ErrTruncated)
		return 0
	}
	d.off += n
	return v
}

// count reads a collection length and bounds it by the bytes remaining, so
// a hostile frame cannot trigger a huge allocation: every element costs at
// least one byte on the wire.
func (d *decoder) count() int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.b)-d.off) {
		d.fail(fmt.Errorf("%w: count %d exceeds remaining %d bytes", ErrBadMessage, v, len(d.b)-d.off))
		return 0
	}
	return int(v)
}

// span reads a length prefix and steps over the bytes it covers, returning
// their bounds in b.
func (d *decoder) span() (start, end int) {
	n := d.count()
	if d.err != nil {
		return 0, 0
	}
	start = d.off
	d.off += n
	return start, d.off
}

// string decodes a string as a view into the frame's arena.
func (d *decoder) string() string {
	start, end := d.span()
	if start == end {
		return ""
	}
	if d.arena == "" {
		d.arena = string(d.b)
	}
	return d.arena[start:end]
}

// owned decodes a string as a copy of its own, for what is decoded in
// order to be retained.
func (d *decoder) owned() string {
	start, end := d.span()
	return string(d.b[start:end])
}

// finish returns the latched error, or ErrBadMessage if bytes remain.
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(d.b)-d.off)
	}
	return nil
}
