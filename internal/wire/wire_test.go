package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// sampleRequests covers every opcode with every field shape it uses.
func sampleRequests() []*Request {
	return []*Request{
		{ID: 1, Op: OpGet, Key: "k"},
		{ID: 2, Op: OpPut, Key: "k", Value: "v"},
		{ID: 3, Op: OpBeginTxn},
		{ID: 4, Op: OpCommit, TxnID: 77, Keys: []string{"a", "b"},
			KVs: []KV{{"c", "1"}, {"d", "2"}}},
		{ID: 5, Op: OpCommit, TxnID: 78}, // empty read and write sets
		{ID: 6, Op: OpFence},
		{ID: 7, Op: OpMultiGet, Keys: []string{"x", "y", "z"}},
		{ID: 8, Op: OpMultiPut, KVs: []KV{{"x", "vx"}}},
		{ID: 9, Op: OpROTxn, Keys: []string{"x", "y"}, TMin: 1<<62 - 1},
		{ID: 10, Op: OpROTxn, Keys: []string{"x"}, TMin: -3}, // negative t_min survives zig-zag
		{ID: 1<<64 - 1, Op: OpGet, Key: "", Value: ""},       // extreme ID, empty strings
		{ID: 11, Op: OpEnqueue, Key: "thumbs", Value: "photo-7"},
		{ID: 12, Op: OpEnqueue, Key: "thumbs", Value: ""}, // "" is a legal element
		{ID: 13, Op: OpDequeue, Key: "thumbs"},
		{ID: 14, Op: OpReplEntry, Key: "127.0.0.1:7380", Value: "nonce-1",
			TxnID: 3, Seq: 1<<63 - 1}, // log pull: shard 3, extreme position
		{ID: 15, Op: OpReplAck, Key: "127.0.0.1:7380", Value: "nonce-1",
			TxnID: 3, Seq: 42, TMin: 1234567},
		{ID: 16, Op: OpReplRead, TxnID: 2, TMin: 99,
			Keys: []string{"a", "b"}},
		{ID: 17, Op: OpReplSnapshot, Key: "127.0.0.1:7380", Value: "nonce-1", TxnID: 0},
	}
}

// sampleResponses covers every opcode with success and failure shapes.
func sampleResponses() []*Response {
	return []*Response{
		{ID: 1, Op: OpGet, OK: true, Value: "v", Version: 42},
		{ID: 2, Op: OpGet, OK: true, Value: "", Version: 0}, // never-written key
		{ID: 3, Op: OpPut, OK: true, Version: 43},
		{ID: 4, Op: OpBeginTxn, OK: true, TxnID: 99},
		{ID: 5, Op: OpCommit, OK: true, Version: 44, KVs: []KV{{"a", "1"}, {"b", ""}}},
		{ID: 6, Op: OpCommit, OK: false, Err: "aborted", TxnID: 99},
		{ID: 7, Op: OpFence, OK: true},
		{ID: 8, Op: OpMultiGet, OK: true, KVs: []KV{{"x", "vx"}}},
		{ID: 9, Op: OpMultiPut, OK: true, Version: 45},
		{ID: 10, Op: OpPut, OK: false, Err: "server closed", Version: -1},
		{ID: 11, Op: OpROTxn, OK: true, Version: 46, KVs: []KV{{"x", "vx"}, {"y", ""}}},
		{ID: 12, Op: OpROTxn, OK: true, Version: 47, Follower: true,
			KVs: []KV{{"x", "vx"}}}, // follower-served snapshot read
		{ID: 13, Op: OpROTxn, OK: false, Follower: true, Err: "x"}, // flags bits independent
		{ID: 14, Op: OpEnqueue, OK: true, Version: 9},
		{ID: 15, Op: OpDequeue, OK: true, Value: "photo-7", Version: 9},
		{ID: 16, Op: OpDequeue, OK: true, Empty: true},                 // empty queue
		{ID: 17, Op: OpDequeue, OK: true, Value: "", Version: 3},       // "" element ≠ empty queue
		{ID: 18, Op: OpDequeue, OK: true, Empty: true, Follower: true}, // flags bits independent
		{ID: 19, Op: OpEnqueue, OK: false, Err: "queue server closed"}, // failure shape
		{ID: 20, Op: OpReplEntry, OK: true, TxnID: 8, Seq: 57,
			Value: string(AppendReplEntries(nil, []ReplEntry{
				{Seq: 56, Kind: 1, TxnID: 7, TS: 100, Watermark: 90},
				{Seq: 57, Kind: 2, TxnID: 7, TS: 105, Watermark: 104,
					Writes: []KV{{"k", "v"}}},
			}))},
		{ID: 21, Op: OpReplEntry, OK: false, Err: ErrMsgSnapshotRequired}, // truncated-away pull
		{ID: 22, Op: OpReplAck, OK: true},
		{ID: 23, Op: OpReplRead, OK: true,
			Value: string(AppendReplVals(nil, []ReplVal{{"a", "va", 10}, {"b", "", 0}}))},
		{ID: 24, Op: OpReplRead, OK: false, Err: "replica lagging"}, // refusal shape
		{ID: 25, Op: OpReplSnapshot, OK: true, Seq: 128, Version: 5000,
			Value: string(AppendReplVals(nil, []ReplVal{{"k", "v1", 3}, {"k", "v2", 9}}))},
		{ID: 26, Op: OpMultiGet, OK: true, KVs: []KV{{"x", "vx"}, {"y", ""}},
			Vers: []int64{41, 0}}, // per-key version witnesses
		{ID: 27, Op: OpROTxn, OK: true, Version: 50, Follower: true,
			KVs: []KV{{"x", "vx"}}, Vers: []int64{-3}},
		{ID: 28, Op: OpCommit, OK: true, Version: 60,
			KVs:  []KV{{"a", "1"}, {"b", ""}, {"c", "2"}, {"d", ""}, {"e", "3"}, {"f", ""}, {"g", "4"}, {"h", ""}, {"i", "5"}},
			Vers: []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}}, // beyond the inline boxes
		{ID: 29, Op: OpCommit, OK: false, Overloaded: true, Err: "overloaded",
			RetryAfterUS: 1500}, // admission rejection with retry hint
		{ID: 30, Op: OpPut, OK: false, Overloaded: true, Err: "overloaded"}, // no hint
		{ID: 31, Op: OpROTxn, OK: false, Overloaded: true, Follower: false,
			Err: "overloaded", RetryAfterUS: 1<<40 + 3}, // extreme hint survives
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, want := range sampleRequests() {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, want); err != nil {
			t.Fatalf("%v: write: %v", want.Op, err)
		}
		got, err := ReadRequest(&buf, 0)
		if err != nil {
			t.Fatalf("%v: read: %v", want.Op, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: round trip mismatch:\n got %+v\nwant %+v", want.Op, got, want)
		}
		if buf.Len() != 0 {
			t.Errorf("%v: %d bytes left after one frame", want.Op, buf.Len())
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, want := range sampleResponses() {
		var buf bytes.Buffer
		if err := WriteResponse(&buf, want); err != nil {
			t.Fatalf("%v: write: %v", want.Op, err)
		}
		got, err := ReadResponse(&buf, 0)
		if err != nil {
			t.Fatalf("%v: read: %v", want.Op, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: round trip mismatch:\n got %+v\nwant %+v", want.Op, got, want)
		}
	}
}

// TestPipelinedStream checks that many frames written back to back decode
// in order from one stream, which is what a pipelined connection does.
func TestPipelinedStream(t *testing.T) {
	var buf bytes.Buffer
	reqs := sampleRequests()
	for _, r := range reqs {
		if err := WriteRequest(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range reqs {
		got, err := ReadRequest(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d mismatch: got %+v want %+v", i, got, want)
		}
	}
	if _, err := ReadRequest(&buf, 0); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

// TestTruncatedPayload checks that every strict prefix of a valid payload
// fails to decode rather than succeeding or panicking.
func TestTruncatedPayload(t *testing.T) {
	full := AppendRequest(nil, &Request{
		ID: 9, Op: OpCommit, TxnID: 3, Key: "k", Value: "v",
		Keys: []string{"a"}, KVs: []KV{{"b", "2"}},
	})
	for n := 0; n < len(full); n++ {
		if _, err := DecodeRequest(full[:n]); err == nil {
			t.Errorf("prefix of %d/%d bytes decoded without error", n, len(full))
		}
	}
	fullResp := AppendResponse(nil, &Response{
		ID: 9, Op: OpCommit, OK: true, Version: -7, KVs: []KV{{"b", "2"}},
	})
	for n := 0; n < len(fullResp); n++ {
		if _, err := DecodeResponse(fullResp[:n]); err == nil {
			t.Errorf("response prefix of %d/%d bytes decoded without error", n, len(fullResp))
		}
	}
}

// TestTruncatedQueuePayloads checks every strict prefix of the queue
// opcodes' payloads, and that an Empty dequeue truncated mid-flags fails
// rather than decoding as a non-empty result.
func TestTruncatedQueuePayloads(t *testing.T) {
	reqs := []*Request{
		{ID: 3, Op: OpEnqueue, Key: "q", Value: "payload"},
		{ID: 4, Op: OpDequeue, Key: "q"},
	}
	for _, r := range reqs {
		full := AppendRequest(nil, r)
		for n := 0; n < len(full); n++ {
			if _, err := DecodeRequest(full[:n]); err == nil {
				t.Errorf("%v: prefix of %d/%d bytes decoded without error", r.Op, n, len(full))
			}
		}
	}
	resps := []*Response{
		{ID: 3, Op: OpEnqueue, OK: true, Version: 12},
		{ID: 4, Op: OpDequeue, OK: true, Empty: true},
	}
	for _, r := range resps {
		full := AppendResponse(nil, r)
		for n := 0; n < len(full); n++ {
			if _, err := DecodeResponse(full[:n]); err == nil {
				t.Errorf("%v: response prefix of %d/%d bytes decoded without error", r.Op, n, len(full))
			}
		}
	}
}

// TestOversizedEnqueue checks that an enqueue payload over the frame limit
// is refused by the reader without a huge allocation, and accepted by a
// reader configured for it — queue elements are opaque blobs, so the limit
// is the only bound on their size.
func TestOversizedEnqueue(t *testing.T) {
	big := &Request{ID: 1, Op: OpEnqueue, Key: "q", Value: string(make([]byte, MaxFrame+1))}
	var buf bytes.Buffer
	if err := WriteRequest(&buf, big); err != nil {
		t.Fatalf("write over default limit: %v, want nil (size is the reader's call)", err)
	}
	if _, err := ReadRequest(bytes.NewReader(buf.Bytes()), 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("default reader accepted oversized enqueue: %v", err)
	}
	if got, err := ReadRequest(bytes.NewReader(buf.Bytes()), 2*MaxFrame); err != nil || got.Value != big.Value {
		t.Errorf("large-limit reader failed on oversized enqueue: %v", err)
	}
}

// TestBadResponseFlags checks that reserved flag bits are rejected, so a
// future flag cannot be silently dropped by an old peer.
func TestBadResponseFlags(t *testing.T) {
	full := AppendResponse(nil, &Response{ID: 1, Op: OpDequeue, OK: true, Empty: true})
	// The flags byte follows the opcode and the ID varint (one byte here).
	// Bit 16 became NotLeader; 32 is the lowest still-reserved bit.
	full[2] |= 32
	if _, err := DecodeResponse(full); !errors.Is(err, ErrBadMessage) {
		t.Errorf("reserved flag bit: got %v, want ErrBadMessage", err)
	}
}

// TestTruncatedStream checks the framed reader's behavior when the
// connection drops mid-frame.
func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRequest(&buf, &Request{ID: 1, Op: OpPut, Key: "k", Value: "v"}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Cut inside the header: unexpected EOF surfaces from ReadFull.
	if _, err := ReadFrame(bytes.NewReader(whole[:2]), 0); err != io.ErrUnexpectedEOF {
		t.Errorf("cut header: got %v, want io.ErrUnexpectedEOF", err)
	}
	// Cut inside the payload.
	if _, err := ReadFrame(bytes.NewReader(whole[:len(whole)-1]), 0); err != io.ErrUnexpectedEOF {
		t.Errorf("cut payload: got %v, want io.ErrUnexpectedEOF", err)
	}
	// Clean EOF before any byte.
	if _, err := ReadFrame(bytes.NewReader(nil), 0); err != io.EOF {
		t.Errorf("empty stream: got %v, want io.EOF", err)
	}
}

func TestOversizedFrame(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("default limit: got %v, want ErrFrameTooLarge", err)
	}
	// A custom limit rejects frames the default would accept.
	binary.BigEndian.PutUint32(hdr[:], 100)
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), 64); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("custom limit: got %v, want ErrFrameTooLarge", err)
	}
	// The writer does not enforce the read limit (a larger-limit peer
	// must be able to receive what it is configured for); a frame just
	// over MaxFrame writes fine and is rejected by a default reader.
	big := &Request{ID: 1, Op: OpPut, Key: "k", Value: string(make([]byte, MaxFrame+1))}
	var buf bytes.Buffer
	if err := WriteRequest(&buf, big); err != nil {
		t.Errorf("write over default limit: %v, want nil", err)
	}
	if _, err := ReadRequest(&buf, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("default reader accepted oversized frame: %v", err)
	}
	// A reader configured with a larger limit accepts the same frame.
	buf.Reset()
	if err := WriteRequest(&buf, big); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRequest(&buf, 2*MaxFrame); err != nil {
		t.Errorf("large-limit reader rejected frame: %v", err)
	}
}

func TestBadMessages(t *testing.T) {
	cases := map[string][]byte{
		"empty":           {},
		"zero opcode":     AppendRequest(nil, &Request{Op: 0, ID: 1}),
		"unknown opcode":  {0xff, 0x01},
		"trailing bytes":  append(AppendRequest(nil, &Request{Op: OpGet, ID: 1}), 0xaa),
		"implausible len": {byte(OpGet), 1, 0, 0xff, 0xff, 0xff, 0x7f},
	}
	for name, payload := range cases {
		if _, err := DecodeRequest(payload); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
		if _, err := DecodeResponse(payload); err == nil && name != "trailing bytes" {
			t.Errorf("%s: response decoded without error", name)
		}
	}
}

// TestCountBomb checks that a declared element count far beyond the frame
// size is rejected before allocation.
func TestCountBomb(t *testing.T) {
	payload := []byte{byte(OpMultiGet)}
	payload = binary.AppendUvarint(payload, 1)     // ID
	payload = binary.AppendUvarint(payload, 0)     // TxnID
	payload = binary.AppendUvarint(payload, 0)     // Key
	payload = binary.AppendUvarint(payload, 0)     // Value
	payload = binary.AppendUvarint(payload, 1<<40) // Keys count bomb
	if _, err := DecodeRequest(payload); !errors.Is(err, ErrBadMessage) {
		t.Errorf("count bomb: got %v, want ErrBadMessage", err)
	}
}

// TestFrameReaderStream checks that the buffer-reusing reader decodes a
// pipelined stream identically to the allocating reader, including frames
// that force the shared buffer to grow.
func TestFrameReaderStream(t *testing.T) {
	var buf bytes.Buffer
	reqs := sampleRequests()
	// A large frame in the middle exercises buffer growth; small frames
	// after it exercise reuse of the grown buffer.
	reqs = append(reqs, &Request{ID: 100, Op: OpPut, Key: "big", Value: string(make([]byte, 32<<10))})
	reqs = append(reqs, sampleRequests()...)
	for _, r := range reqs {
		if err := WriteRequest(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	fr := NewFrameReader(&buf, 0)
	for i, want := range reqs {
		got, err := fr.ReadRequest()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d mismatch: got %+v want %+v", i, got, want)
		}
	}
	if _, err := fr.ReadRequest(); err != io.EOF {
		t.Fatalf("after last frame: got %v, want io.EOF", err)
	}
}

// TestFrameReaderLimits checks that the shared-buffer reader enforces the
// frame limit and surfaces truncation like ReadFrame does.
func TestFrameReaderLimits(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	if _, err := NewFrameReader(bytes.NewReader(hdr[:]), 64).ReadFrame(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("over limit: got %v, want ErrFrameTooLarge", err)
	}
	var buf bytes.Buffer
	if err := WriteRequest(&buf, &Request{ID: 1, Op: OpPut, Key: "k", Value: "v"}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	if _, err := NewFrameReader(bytes.NewReader(whole[:len(whole)-1]), 0).ReadFrame(); err != io.ErrUnexpectedEOF {
		t.Errorf("cut payload: got %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := NewFrameReader(bytes.NewReader(nil), 0).ReadFrame(); err != io.EOF {
		t.Errorf("empty stream: got %v, want io.EOF", err)
	}
}

// benchFrames returns one iteration's worth of encoded request frames: a
// typical pipelined mix of small ops and commit batches.
func benchFrames(b *testing.B) []byte {
	var stream bytes.Buffer
	req := &Request{Op: OpCommit, ID: 7, TxnID: 42,
		Keys: []string{"alpha", "beta"},
		KVs:  []KV{{"gamma", "value-1"}, {"delta", "value-2"}}}
	for i := 0; i < 64; i++ {
		if err := WriteRequest(&stream, req); err != nil {
			b.Fatal(err)
		}
	}
	return stream.Bytes()
}

// BenchmarkReadRequestAlloc is the per-frame-allocation baseline (the old
// connection read path): every frame allocates a fresh payload buffer.
func BenchmarkReadRequestAlloc(b *testing.B) {
	frames := benchFrames(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := bytes.NewReader(frames)
		for j := 0; j < 64; j++ {
			if _, err := ReadRequest(r, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFrameReaderRequest is the reused-buffer connection read path.
func BenchmarkFrameReaderRequest(b *testing.B) {
	frames := benchFrames(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr := NewFrameReader(bytes.NewReader(frames), 0)
		for j := 0; j < 64; j++ {
			if _, err := fr.ReadRequest(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestRetentionDecodeSurvivesBufferReuse is the FrameReader reuse case as a
// property: a decoded message hands out views into an arena, and that
// arena must be the decoder's own copy — overwriting the payload buffer
// after the decode (which is what the next frame on the connection does)
// may not change a single decoded string.
func TestRetentionDecodeSurvivesBufferReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	str := func(max int) string {
		b := make([]byte, rng.Intn(max+1))
		rng.Read(b)
		return string(b)
	}
	scribble := func(b []byte) {
		for i := range b {
			b[i] ^= 0xA5
		}
	}
	for i := 0; i < 2000; i++ {
		req := &Request{
			ID: rng.Uint64(), Op: Op(1 + rng.Intn(int(OpView))), TxnID: rng.Uint64(),
			Key: str(24), Value: str(64),
			TMin: rng.Int63() - rng.Int63(), Seq: rng.Uint64(), Epoch: rng.Uint64(),
		}
		for n := rng.Intn(14); n > 0; n-- { // past the box's inline arrays too
			req.Keys = append(req.Keys, str(24))
		}
		for n := rng.Intn(12); n > 0; n-- {
			req.KVs = append(req.KVs, KV{Key: str(24), Value: str(64)})
		}
		payload := AppendRequest(nil, req)
		got, err := DecodeRequest(payload)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		scribble(payload)
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("request %d changed when its payload buffer was overwritten:\n got %+v\nwant %+v", i, got, req)
		}

		resp := &Response{
			ID: rng.Uint64(), Op: Op(1 + rng.Intn(int(OpView))), OK: rng.Intn(2) == 0,
			Err: str(16), TxnID: rng.Uint64(), Value: str(64), Version: rng.Int63(),
			Follower: rng.Intn(2) == 0, Empty: rng.Intn(2) == 0,
			Seq: rng.Uint64(), Epoch: rng.Uint64(),
		}
		for n := rng.Intn(14); n > 0; n-- {
			resp.KVs = append(resp.KVs, KV{Key: str(24), Value: str(64)})
			resp.Vers = append(resp.Vers, rng.Int63())
		}
		payload = AppendResponse(payload[:0], resp) // the same buffer again, like a FrameReader
		gotResp, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		scribble(payload)
		if !reflect.DeepEqual(gotResp, resp) {
			t.Fatalf("response %d changed when its payload buffer was overwritten:\n got %+v\nwant %+v", i, gotResp, resp)
		}
	}
}
