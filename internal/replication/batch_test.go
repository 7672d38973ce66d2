package replication

import (
	"reflect"
	"testing"
	"time"

	"rsskv/internal/truetime"
	"rsskv/internal/wire"
)

// batchFixture is a mixed-kind log: two prepares resolved in-batch (one
// commit, one abort) and standalone commits, with the watermarks a
// sequential appender would have stamped.
func batchFixture() []Entry {
	return []Entry{
		{Kind: EntryPrepare, TxnID: 1, TS: 10, Watermark: 9, Writes: []wire.KV{{Key: "k0", Value: "a"}}},
		{Kind: EntryCommit, TxnID: 1, TS: 20, Watermark: 20, Writes: []wire.KV{{Key: "k0", Value: "a"}}},
		{Kind: EntryPrepare, TxnID: 2, TS: 30, Watermark: 29, Writes: []wire.KV{{Key: "k1", Value: "b"}}},
		{Kind: EntryAbort, TxnID: 2, TS: 40, Watermark: 40},
		{Kind: EntryCommit, TxnID: 3, TS: 50, Watermark: 50, Writes: []wire.KV{{Key: "k2", Value: "c"}}},
	}
}

// appendOne appends a single entry: the tests' shorthand for a one-entry
// AppendBatch.
func appendOne(g *Group, kind EntryKind, txnID uint64, ts, wm truetime.Timestamp, writes []wire.KV) {
	g.AppendBatch([]Entry{{Kind: kind, TxnID: txnID, TS: ts, Watermark: wm, Writes: writes}})
}

// TestAppendBatchEquivalence: one AppendBatch must be indistinguishable
// from N one-entry appends on both follower paths — the retained log a
// pull replica drains, and the applied state plus acknowledgments of an
// in-process channel follower.
func TestAppendBatchEquivalence(t *testing.T) {
	build := func(batch bool) (*Group, Transport) {
		g := NewGroup(0, 1, Chaos{}) // one chan follower
		t.Cleanup(g.Close)
		g.Attach(&pullStub{}) // pull transport: makes the group retain its log
		es := batchFixture()
		if batch {
			g.AppendBatch(es) // Seqs assigned inside
		} else {
			for _, e := range es {
				appendOne(g, e.Kind, e.TxnID, e.TS, e.Watermark, e.Writes)
			}
		}
		return g, g.Transport(0)
	}

	gSeq, fSeq := build(false)
	gBat, fBat := build(true)

	// Pull path: the retained logs must be identical, sequence numbers
	// included.
	logSeq, okSeq := gSeq.EntriesAfter(0, 100)
	logBat, okBat := gBat.EntriesAfter(0, 100)
	if !okSeq || !okBat {
		t.Fatalf("retained log unavailable: seq ok=%v batch ok=%v", okSeq, okBat)
	}
	if !reflect.DeepEqual(logSeq, logBat) {
		t.Fatalf("retained logs differ:\n  sequential %+v\n  batched    %+v", logSeq, logBat)
	}
	if gSeq.NextSeq() != gBat.NextSeq() {
		t.Fatalf("next seq differs: sequential %d, batched %d", gSeq.NextSeq(), gBat.NextSeq())
	}

	// Push path: both channel followers converge to the same acknowledged
	// watermark and serve the same snapshot.
	deadline := time.Now().Add(2 * time.Second)
	for fSeq.Acked() < 50 || fBat.Acked() < 50 {
		if time.Now().After(deadline) {
			t.Fatalf("followers never acked the tail watermark: sequential %d, batched %d", fSeq.Acked(), fBat.Acked())
		}
		time.Sleep(time.Millisecond)
	}
	keys := []string{"k0", "k1", "k2"}
	vSeq, okS, _ := fSeq.Read(50, keys, time.Second)
	vBat, okB, _ := fBat.Read(50, keys, time.Second)
	if !okS || !okB {
		t.Fatalf("follower reads failed: sequential ok=%v batched ok=%v", okS, okB)
	}
	if !reflect.DeepEqual(vSeq, vBat) {
		t.Fatalf("follower snapshots differ:\n  sequential %+v\n  batched    %+v", vSeq, vBat)
	}
	// And both reflect the fixture's resolutions: txn 1 committed at 20,
	// txn 2 aborted (k1 absent), txn 3 committed at 50.
	want := map[string]string{"k0": "a", "k2": "c"}
	for i, k := range keys {
		v := vSeq[i]
		if wv, ok := want[k]; ok {
			if v.Value != wv {
				t.Fatalf("%s = %q, want %q", k, v.Value, wv)
			}
		} else if v.Value != "" {
			t.Fatalf("aborted write visible: %s = %q", k, v.Value)
		}
	}
}
