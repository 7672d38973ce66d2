package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rsskv/internal/wire"
)

func mustOpen(t *testing.T, cfg Config) (*Log, *Recovered) {
	t.Helper()
	l, rec, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", cfg.Dir, err)
	}
	return l, rec
}

func commitRec(txn uint64, ts int64, kvs ...wire.KV) Record {
	return Record{Kind: KindCommit, TxnID: txn, TS: ts, Writes: kvs}
}

func kv(k, v string) wire.KV { return wire.KV{Key: k, Value: v} }

// appendBatch appends records and syncs them as one group commit.
func appendBatch(t *testing.T, l *Log, wm int64, recs ...Record) uint64 {
	t.Helper()
	var last uint64
	for _, r := range recs {
		last = l.Append(r)
	}
	if _, err := l.Sync(wm); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	return last
}

func TestAppendSyncRecover(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, Config{Dir: dir})
	if rec.Checkpoint != nil || len(rec.Records) != 0 || rec.LSN != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	appendBatch(t, l, 10,
		Record{Kind: KindPrepare, TxnID: 7, TS: 5, TEE: 9, Writes: []wire.KV{kv("a", "1")}},
		commitRec(7, 8, kv("a", "1")))
	lsn := appendBatch(t, l, 20, commitRec(9, 15, kv("b", "2"), kv("c", "3")))
	if lsn != 3 {
		t.Fatalf("lsn = %d, want 3", lsn)
	}
	if got := l.DurableLSN(); got != 3 {
		t.Fatalf("DurableLSN = %d, want 3", got)
	}
	if got := l.Fsyncs(); got != 2 {
		t.Fatalf("fsyncs = %d, want 2 (one per batch)", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec = mustOpen(t, Config{Dir: dir})
	if len(rec.Records) != 3 || rec.LSN != 3 || rec.Torn {
		t.Fatalf("recovered %d records LSN %d torn=%v, want 3/3/false", len(rec.Records), rec.LSN, rec.Torn)
	}
	r := rec.Records[0]
	if r.Kind != KindPrepare || r.TxnID != 7 || r.TS != 5 || r.TEE != 9 {
		t.Fatalf("record 0 = %+v", r)
	}
	r = rec.Records[1]
	if r.Kind != KindCommit || r.TS != 8 || r.Watermark != 10 {
		t.Fatalf("record 1 = %+v (batch-tail watermark must persist)", r)
	}
	r = rec.Records[2]
	if len(r.Writes) != 2 || r.Writes[1] != kv("c", "3") || r.Watermark != 20 {
		t.Fatalf("record 2 = %+v", r)
	}
}

func TestEmptySyncPaysNoFsync(t *testing.T) {
	l, _ := mustOpen(t, Config{Dir: t.TempDir()})
	defer l.Close()
	for i := 0; i < 5; i++ {
		if n, err := l.Sync(99); err != nil || n != 0 {
			t.Fatalf("empty Sync = (%d, %v)", n, err)
		}
	}
	if got := l.Fsyncs(); got != 0 {
		t.Fatalf("fsyncs = %d, want 0 for empty batches (idle heartbeats must not fsync)", got)
	}
}

func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Config{Dir: dir})
	appendBatch(t, l, 5, commitRec(1, 3, kv("a", "1")))
	appendBatch(t, l, 7, commitRec(2, 6, kv("a", "2")))
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	cp := &Checkpoint{
		LSN: 2, Seq: 12, Watermark: 7,
		Vals: []wire.ReplVal{{Key: "a", Value: "1", TS: 3}, {Key: "a", Value: "2", TS: 6}},
	}
	if _, err := l.WriteCheckpoint(cp); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if err := l.RemoveObsoleteSegments(2); err != nil {
		t.Fatalf("RemoveObsoleteSegments: %v", err)
	}
	appendBatch(t, l, 11, commitRec(3, 9, kv("b", "1")))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("segments after truncation = %v, want only the active one", segs)
	}

	_, rec := mustOpen(t, Config{Dir: dir})
	if rec.Checkpoint == nil || rec.Checkpoint.Seq != 12 || rec.Checkpoint.Watermark != 7 {
		t.Fatalf("recovered checkpoint %+v", rec.Checkpoint)
	}
	if len(rec.Checkpoint.Vals) != 2 {
		t.Fatalf("checkpoint vals %v", rec.Checkpoint.Vals)
	}
	if len(rec.Records) != 1 || rec.LSN != 3 || rec.Records[0].TxnID != 3 {
		t.Fatalf("replay suffix %+v LSN %d, want just txn 3 at LSN 3", rec.Records, rec.LSN)
	}
}

func TestCrashMidCheckpointKeepsOld(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Config{Dir: dir})
	appendBatch(t, l, 5, commitRec(1, 3, kv("a", "1")))
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if _, err := l.WriteCheckpoint(&Checkpoint{LSN: 1, Seq: 2, Watermark: 5,
		Vals: []wire.ReplVal{{Key: "a", Value: "1", TS: 3}}}); err != nil {
		t.Fatalf("first checkpoint: %v", err)
	}
	l.Close()

	// Second generation: a new commit, then a checkpoint that crashes
	// after writing the tmp but before the rename.
	l, _ = mustOpen(t, Config{Dir: dir, CrashAt: CrashMidCheckpoint})
	appendBatch(t, l, 9, commitRec(2, 8, kv("a", "2")))
	if _, err := l.WriteCheckpoint(&Checkpoint{LSN: 2, Seq: 3, Watermark: 9,
		Vals: []wire.ReplVal{{Key: "a", Value: "2", TS: 8}}}); err != ErrCrashed {
		t.Fatalf("mid-checkpoint crash: err = %v, want ErrCrashed", err)
	}
	if !l.Crashed() {
		t.Fatal("log not crashed after CrashMidCheckpoint")
	}

	// Recovery must see the OLD checkpoint plus the full replay suffix,
	// and must have discarded the tmp.
	_, rec := mustOpen(t, Config{Dir: dir})
	if rec.Checkpoint == nil || rec.Checkpoint.Seq != 2 {
		t.Fatalf("recovered checkpoint %+v, want the first generation (Seq 2)", rec.Checkpoint)
	}
	if len(rec.Records) != 1 || rec.Records[0].TxnID != 2 {
		t.Fatalf("replay suffix %+v, want the post-checkpoint commit", rec.Records)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointTmp)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint.tmp survived recovery: %v", err)
	}
}

func TestCrashBeforeFsyncLosesBatch(t *testing.T) {
	dir := t.TempDir()
	onCrash := 0
	l, _ := mustOpen(t, Config{Dir: dir, CrashAt: CrashBeforeFsync, CrashAfter: 2,
		OnCrash: func() { onCrash++ }})
	appendBatch(t, l, 5, commitRec(1, 3, kv("a", "1")))
	l.Append(commitRec(2, 6, kv("a", "2")))
	if _, err := l.Sync(7); err != ErrCrashed {
		t.Fatalf("Sync at crash point: err = %v, want ErrCrashed", err)
	}
	if onCrash != 1 {
		t.Fatalf("OnCrash ran %d times, want 1", onCrash)
	}
	// The dead process acknowledges nothing: every later Sync fails, even
	// an empty one that would only vouch for the durable first batch.
	if _, err := l.Sync(8); err != ErrCrashed {
		t.Fatalf("Sync after crash: %v, want ErrCrashed", err)
	}
	if l.Append(commitRec(3, 9)) != 0 {
		t.Fatal("Append after crash must return 0")
	}

	_, rec := mustOpen(t, Config{Dir: dir})
	if len(rec.Records) != 1 || rec.Records[0].TxnID != 1 {
		t.Fatalf("recovered %+v, want only the fsynced batch", rec.Records)
	}
}

func TestCrashAfterAppendSurvivesByLuck(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Config{Dir: dir, CrashAt: CrashAfterAppend})
	l.Append(commitRec(1, 3, kv("a", "1")))
	if _, err := l.Sync(5); err != ErrCrashed {
		t.Fatalf("Sync at crash point: err = %v, want ErrCrashed", err)
	}
	// The bytes hit the file without an fsync and the kernel kept them:
	// recovery finds a batch nobody was acked. It is history all the
	// same — no response depended on it, so including it is safe.
	_, rec := mustOpen(t, Config{Dir: dir})
	if len(rec.Records) != 1 || rec.Records[0].TxnID != 1 {
		t.Fatalf("recovered %+v, want the unacknowledged batch", rec.Records)
	}
}

func TestCrashAfterPrepareLeavesDanglingPrepare(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Config{Dir: dir, CrashAt: CrashAfterPrepare})
	// A batch with no prepare does not qualify.
	appendBatch(t, l, 3, commitRec(1, 2, kv("a", "1")))
	l.Append(Record{Kind: KindPrepare, TxnID: 5, TS: 4, TEE: 8, Writes: []wire.KV{kv("b", "1")}})
	if _, err := l.Sync(4); err != ErrCrashed {
		t.Fatalf("prepare sync: err = %v, want ErrCrashed", err)
	}
	_, rec := mustOpen(t, Config{Dir: dir})
	if len(rec.Records) != 2 || rec.Records[1].Kind != KindPrepare || rec.Records[1].TxnID != 5 {
		t.Fatalf("recovered %+v, want the durable prepare with no resolution", rec.Records)
	}
}

func TestTornTails(t *testing.T) {
	// Build a clean two-batch log once, then serve mangled copies.
	master := t.TempDir()
	l, _ := mustOpen(t, Config{Dir: master})
	appendBatch(t, l, 5, commitRec(1, 3, kv("a", "1")), commitRec(2, 4, kv("b", "2")))
	appendBatch(t, l, 9, commitRec(3, 8, kv("c", "3")))
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(master, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	clean, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		mangle  func([]byte) []byte
		records int  // records recovery must still return
		torn    bool // whether a tear must be reported
	}{
		{"clean", func(b []byte) []byte { return b }, 3, false},
		{"truncated mid-record", func(b []byte) []byte { return b[:len(b)-7] }, 2, true},
		{"truncated mid-header", func(b []byte) []byte { return b[:len(b)-tailLen(t, clean)+3] }, 2, true},
		{"bit flip in tail payload", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0x40
			return c
		}, 2, true},
		{"bit flip in tail CRC", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-tailLen(t, clean)+4] ^= 0x01
			return c
		}, 2, true},
		{"garbage suffix", func(b []byte) []byte {
			return append(append([]byte(nil), b...), 0xde, 0xad, 0xbe, 0xef, 0xff, 0x00, 0x11, 0x22, 0x33)
		}, 3, true},
		{"huge length prefix suffix", func(b []byte) []byte {
			return append(append([]byte(nil), b...), 0x7f, 0xff, 0xff, 0xff, 0, 0, 0, 0)
		}, 3, true},
		{"zero length frame suffix", func(b []byte) []byte {
			return append(append([]byte(nil), b...), 0, 0, 0, 0, 0, 0, 0, 0)
		}, 3, true},
		{"all garbage", func(b []byte) []byte { return []byte("not a wal segment at all") }, 0, true},
		{"empty file", func(b []byte) []byte { return nil }, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segmentName(1)), tc.mangle(clean), 0o644); err != nil {
				t.Fatal(err)
			}
			l, rec := mustOpen(t, Config{Dir: dir})
			if len(rec.Records) != tc.records || rec.Torn != tc.torn {
				t.Fatalf("recovered %d records torn=%v, want %d/%v", len(rec.Records), rec.Torn, tc.records, tc.torn)
			}
			// The log must be appendable after the tear: a new batch must
			// recover on the next open, with LSNs continuing seamlessly.
			lsn := appendBatch(t, l, 20, commitRec(9, 19, kv("z", "9")))
			if want := uint64(tc.records) + 1; lsn != want {
				t.Fatalf("post-tear append LSN = %d, want %d", lsn, want)
			}
			l.Close()
			_, rec2 := mustOpen(t, Config{Dir: dir})
			if len(rec2.Records) != tc.records+1 || rec2.Records[len(rec2.Records)-1].TxnID != 9 {
				t.Fatalf("after reopen: %d records, want %d ending in txn 9", len(rec2.Records), tc.records+1)
			}
		})
	}
}

// tailLen returns the byte length of the final frame in a segment image.
func tailLen(t *testing.T, data []byte) int {
	t.Helper()
	rest := data
	last := 0
	for len(rest) > 0 {
		_, r2, ok := nextFrame(rest)
		if !ok {
			t.Fatal("clean image failed to parse")
		}
		last = len(rest) - len(r2)
		rest = r2
	}
	return last
}

func TestCorruptMidLogIsAnError(t *testing.T) {
	// A corrupt record in a NON-final segment is real damage to
	// acknowledged history, not a crash artifact — recovery must refuse
	// rather than splice past it.
	dir := t.TempDir()
	l, _ := mustOpen(t, Config{Dir: dir})
	appendBatch(t, l, 5, commitRec(1, 3, kv("a", "1")))
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendBatch(t, l, 9, commitRec(2, 8, kv("b", "2")))
	l.Close()

	first := filepath.Join(dir, segmentName(1))
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("Open accepted a corrupt non-final segment")
	}
}

func TestSegmentGapIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, Config{Dir: dir})
	appendBatch(t, l, 5, commitRec(1, 3, kv("a", "1")))
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendBatch(t, l, 9, commitRec(2, 8, kv("b", "2")))
	l.Close()
	if err := os.Remove(filepath.Join(dir, segmentName(1))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("Open accepted a log with a missing segment")
	}
}

// BenchmarkGroupCommit measures the per-entry fsync amortization the
// group commit buys: batch=1 pays one fsync per record, batch=64 pays
// one per 64. The ratio is the headline durability-overhead number.
func BenchmarkGroupCommit(b *testing.B) {
	for _, batch := range []int{1, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			l, _, err := Open(Config{Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			rec := commitRec(1, 1, kv("user:123:profile", "a-plausible-sized-value-payload"))
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				for j := 0; j < batch && i+j < b.N; j++ {
					rec.TxnID = uint64(i + j)
					l.Append(rec)
				}
				if _, err := l.Sync(int64(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(l.Fsyncs())/float64(b.N), "fsyncs/op")
			b.ReportMetric(float64(l.Bytes())/float64(b.N), "bytes/op")
		})
	}
}
