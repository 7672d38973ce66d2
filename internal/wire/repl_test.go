package wire

import (
	"errors"
	"reflect"
	"testing"
)

// sampleReplEntries covers every entry shape the replication log carries.
func sampleReplEntries() []ReplEntry {
	return []ReplEntry{
		{Seq: 1, Kind: 1, TxnID: 7, TS: 100, Watermark: 90}, // prepare
		{Seq: 2, Kind: 4, TS: 0, Watermark: 104, Floor: 99}, // heartbeat, a batch's tail
		{Seq: 3, Kind: 3, TxnID: 7, TS: 0, Watermark: 104},  // abort
		{Seq: 1<<64 - 1, Kind: 2, TxnID: 1<<64 - 1, TS: 1<<62 - 1, Watermark: -1, Floor: 1<<62 - 1,
			Writes: []KV{{"k1", "v1"}, {"k2", ""}, {"", "v3"}}}, // commit, extreme fields
	}
}

func sampleReplVals() []ReplVal {
	return []ReplVal{
		{Key: "k", Value: "v", TS: 42},
		{Key: "", Value: "", TS: 0},            // zero version (the paper's null)
		{Key: "k", Value: "v2", TS: 1<<62 - 1}, // same key, later version
	}
}

func TestReplEntriesRoundTrip(t *testing.T) {
	for _, es := range [][]ReplEntry{nil, sampleReplEntries()[:1], sampleReplEntries()} {
		got, err := DecodeReplEntries(AppendReplEntries(nil, es))
		if err != nil {
			t.Fatalf("decode %d entries: %v", len(es), err)
		}
		want := es
		if want == nil {
			want = []ReplEntry{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestReplValsRoundTrip(t *testing.T) {
	for _, vs := range [][]ReplVal{nil, sampleReplVals()[:1], sampleReplVals()} {
		got, err := DecodeReplVals(AppendReplVals(nil, vs))
		if err != nil {
			t.Fatalf("decode %d vals: %v", len(vs), err)
		}
		want := vs
		if want == nil {
			want = []ReplVal{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestReplPayloadTruncation checks that every strict prefix of the encoded
// payloads fails to decode rather than succeeding or panicking — the same
// bar the frame decoders meet.
func TestReplPayloadTruncation(t *testing.T) {
	full := AppendReplEntries(nil, sampleReplEntries())
	for n := 0; n < len(full); n++ {
		if _, err := DecodeReplEntries(full[:n]); err == nil {
			t.Errorf("entries prefix of %d/%d bytes decoded without error", n, len(full))
		}
	}
	fullVals := AppendReplVals(nil, sampleReplVals())
	for n := 0; n < len(fullVals); n++ {
		if _, err := DecodeReplVals(fullVals[:n]); err == nil {
			t.Errorf("vals prefix of %d/%d bytes decoded without error", n, len(fullVals))
		}
	}
}

// TestReplPayloadTrailingBytes: payloads with bytes after the declared
// content are rejected, not silently accepted.
func TestReplPayloadTrailingBytes(t *testing.T) {
	if _, err := DecodeReplEntries(append(AppendReplEntries(nil, sampleReplEntries()), 0xaa)); !errors.Is(err, ErrBadMessage) {
		t.Errorf("entries trailing byte: got %v, want ErrBadMessage", err)
	}
	if _, err := DecodeReplVals(append(AppendReplVals(nil, sampleReplVals()), 0xaa)); !errors.Is(err, ErrBadMessage) {
		t.Errorf("vals trailing byte: got %v, want ErrBadMessage", err)
	}
}

// TestReplPayloadCountBomb: a declared element count far beyond the payload
// size is rejected before allocation (every element costs at least one
// byte on the wire, so the count is bounded by the remaining bytes).
func TestReplPayloadCountBomb(t *testing.T) {
	bomb := []byte{0xff, 0xff, 0xff, 0xff, 0x7f} // uvarint ~2^34
	if _, err := DecodeReplEntries(bomb); !errors.Is(err, ErrBadMessage) {
		t.Errorf("entries count bomb: got %v, want ErrBadMessage", err)
	}
	if _, err := DecodeReplVals(bomb); !errors.Is(err, ErrBadMessage) {
		t.Errorf("vals count bomb: got %v, want ErrBadMessage", err)
	}
	// A write-set count bomb inside one entry is likewise bounded.
	inner := AppendReplEntries(nil, []ReplEntry{{Seq: 1, Kind: 2}})
	inner = inner[:len(inner)-1]                  // strip the zero write count
	inner = append(inner, 0xff, 0xff, 0xff, 0x7f) // replace with a bomb
	if _, err := DecodeReplEntries(inner); err == nil {
		t.Error("write-set count bomb decoded without error")
	}
}

// TestOversizedSnapshotFrame: a snapshot response larger than the default
// frame limit is refused by a default reader and accepted by a reader
// configured for catch-up-sized frames — the writer never enforces the
// reader's limit, which is what lets a follower opt into large snapshots.
func TestOversizedSnapshotFrame(t *testing.T) {
	big := make([]ReplVal, 0, 1<<12)
	blob := make([]byte, 512)
	for i := range blob {
		blob[i] = byte(i)
	}
	for i := 0; i < cap(big); i++ {
		big = append(big, ReplVal{Key: "key", Value: string(blob), TS: int64(i)})
	}
	resp := &Response{ID: 1, Op: OpReplSnapshot, OK: true, Seq: 9, Version: 1000,
		Value: string(AppendReplVals(nil, big))}
	payload := AppendResponse(nil, resp)
	if len(payload) <= MaxFrame {
		t.Fatalf("test snapshot only %d bytes, need > MaxFrame", len(payload))
	}
	if err := WriteResponse(discard{}, resp); err != nil {
		t.Fatalf("writer refused an over-default-limit snapshot: %v", err)
	}
	// Round-trip through a large-limit reader: content survives.
	got, err := DecodeResponse(payload)
	if err != nil {
		t.Fatalf("decode oversized snapshot response: %v", err)
	}
	vals, err := DecodeReplVals([]byte(got.Value))
	if err != nil {
		t.Fatalf("decode snapshot vals: %v", err)
	}
	if len(vals) != len(big) || vals[len(vals)-1].TS != big[len(big)-1].TS {
		t.Errorf("snapshot content mismatch after round trip: %d vals", len(vals))
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
