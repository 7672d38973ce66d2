package server

import (
	"sync"
	"testing"
	"time"

	"rsskv/internal/replication"
	"rsskv/internal/truetime"
	"rsskv/internal/wire"
)

// captureTransport records every batch the group offers, verbatim, so the
// tests can inspect exactly what a push follower would have received from
// the batched apply pipeline.
type captureTransport struct {
	mu      sync.Mutex
	batches [][]replication.Entry
}

func (c *captureTransport) Offer(es []replication.Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := make([]replication.Entry, len(es))
	copy(cp, es)
	c.batches = append(c.batches, cp)
}

func (c *captureTransport) snapshot() [][]replication.Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]replication.Entry, len(c.batches))
	copy(out, c.batches)
	return out
}

func (c *captureTransport) Pull() bool                { return false }
func (c *captureTransport) Acked() truetime.Timestamp { return 0 }
func (c *captureTransport) AckedSeq() uint64          { return 0 }
func (c *captureTransport) Alive() bool               { return true }
func (c *captureTransport) Routable() bool            { return false }
func (c *captureTransport) Kind() string              { return "capture" }
func (c *captureTransport) Kill()                     {}
func (c *captureTransport) DropAcks()                 {}
func (c *captureTransport) Close()                    {}
func (c *captureTransport) Read(truetime.Timestamp, []string, time.Duration) ([]replication.Val, bool, bool) {
	return nil, false, false
}

// TestBatchDrainOrderingAndWatermark is the batching pipeline's property
// test. A burst of closures is queued behind a blocked apply loop so one
// drain processes them as a batch, and the replicated output must look
// exactly like the sequential pipeline's:
//
//   - submission order is preserved (the prepare, then the commits in the
//     order their closures were queued) with consecutive sequence numbers;
//   - only a batch's tail entry carries a watermark (earlier entries must
//     not — a flush-time watermark can exceed the commit timestamp of a
//     transaction resolved later in the same batch), and the read floor
//     rides on the same entries and never regresses from one to the next;
//   - the tail watermark equals the sequential watermark: with a prepare
//     at t_p outstanding, min prepared t_p − 1, regardless of how many
//     closures shared the drain;
//   - the watermark stays below every in-batch commit timestamp assigned
//     after the pin, so no follower prefix can cover a read it has not
//     seen the writes for.
func TestBatchDrainOrderingAndWatermark(t *testing.T) {
	srv, _ := newTestServer(t, Config{Shards: 1, Replicas: 2})
	s := srv.shards[0]
	cap := &captureTransport{}
	s.repl.Attach(cap)

	// Block the loop so the queued closures drain as one batch.
	gate := make(chan struct{})
	if !s.run(func() { <-gate }) {
		t.Fatal("shard loop closed")
	}

	const pinTxn = 9999
	const commits = 20
	var pin truetime.Timestamp
	if !s.run(func() {
		pin = s.nextTS()
		s.prepared[pinTxn] = &prepEntry{tp: pin, tee: pin}
		s.replicate(replication.EntryPrepare, pinTxn, pin, []wire.KV{{Key: "pk", Value: "pv"}})
	}) {
		t.Fatal("shard loop closed")
	}
	for i := 1; i <= commits; i++ {
		id := uint64(i)
		if !s.run(func() {
			ts := s.nextTS()
			s.store.Write("k", "v", ts)
			s.replicate(replication.EntryCommit, id, ts, []wire.KV{{Key: "k", Value: "v"}})
		}) {
			t.Fatal("shard loop closed")
		}
	}
	close(gate)

	// Two round trips: the first may share the burst's drain, the second
	// cannot start before the burst's flush has happened.
	for i := 0; i < 2; i++ {
		done := make(chan struct{})
		if !s.run(func() { close(done) }) {
			t.Fatal("shard loop closed")
		}
		<-done
	}

	var data []replication.Entry
	var floor truetime.Timestamp
	for _, batch := range cap.snapshot() {
		for i, e := range batch {
			if i < len(batch)-1 && (e.Watermark != 0 || e.Floor != 0) {
				t.Fatalf("non-tail entry %d of a %d-entry batch carries watermark %d, floor %d", i, len(batch), e.Watermark, e.Floor)
			}
			if i == len(batch)-1 {
				if e.Floor == 0 || e.Floor < floor {
					t.Fatalf("batch tail carries floor %d after %d", e.Floor, floor)
				}
				floor = e.Floor
			}
			if e.Kind != replication.EntryHeartbeat {
				data = append(data, e)
			}
		}
	}

	if len(data) != commits+1 {
		t.Fatalf("replicated %d data entries, want %d", len(data), commits+1)
	}
	if data[0].Kind != replication.EntryPrepare || data[0].TxnID != pinTxn {
		t.Fatalf("first entry is %+v, want the pinned prepare", data[0])
	}
	for i, e := range data {
		if want := data[0].Seq + uint64(i); e.Seq != want {
			t.Fatalf("entry %d has seq %d, want %d (submission order broken)", i, e.Seq, want)
		}
		if i == 0 {
			continue
		}
		if e.Kind != replication.EntryCommit || e.TxnID != uint64(i) {
			t.Fatalf("entry %d is kind %d txn %d, want commit txn %d", i, e.Kind, e.TxnID, i)
		}
		if e.TS <= data[i-1].TS {
			t.Fatalf("entry %d timestamp %d not above predecessor %d", i, e.TS, data[i-1].TS)
		}
	}

	// Every stamped watermark — batch tails, including heartbeat flushes
	// after the burst — must sit at the sequential value: the prepare pin
	// is never resolved, so safeWatermark is exactly pin−1 no matter how
	// the closures were batched.
	stamped := 0
	for _, batch := range cap.snapshot() {
		tail := batch[len(batch)-1]
		if tail.Watermark == 0 {
			continue
		}
		stamped++
		if tail.Watermark != pin-1 {
			t.Fatalf("batch tail watermark %d, want sequential watermark %d (pin %d)", tail.Watermark, pin-1, pin)
		}
		for _, e := range batch {
			if e.Kind == replication.EntryCommit && e.TS <= tail.Watermark {
				t.Fatalf("commit at %d not above its batch watermark %d", e.TS, tail.Watermark)
			}
		}
	}
	if stamped == 0 {
		t.Fatal("no batch carried a watermark")
	}
}

// TestBatchMaxOneMatchesSequential re-runs the same burst with
// ApplyBatchMax=1 (the pre-batching pipeline) and checks the batched
// default produced the same replicated log — same order, same kinds, and
// the same final watermark.
func TestBatchMaxOneMatchesSequential(t *testing.T) {
	run := func(batchMax int) ([]replication.Entry, truetime.Timestamp) {
		srv, _ := newTestServer(t, Config{Shards: 1, Replicas: 2, ApplyBatchMax: batchMax})
		s := srv.shards[0]
		cap := &captureTransport{}
		s.repl.Attach(cap)

		gate := make(chan struct{})
		s.run(func() { <-gate })
		var pin truetime.Timestamp
		s.run(func() {
			pin = s.nextTS()
			s.prepared[7] = &prepEntry{tp: pin, tee: pin}
			s.replicate(replication.EntryPrepare, 7, pin, nil)
		})
		for i := 1; i <= 10; i++ {
			id := uint64(100 + i)
			s.run(func() {
				ts := s.nextTS()
				s.replicate(replication.EntryCommit, id, ts, []wire.KV{{Key: "k", Value: "v"}})
			})
		}
		close(gate)
		for i := 0; i < 2; i++ {
			done := make(chan struct{})
			s.run(func() { close(done) })
			<-done
		}

		var data []replication.Entry
		var lastWM truetime.Timestamp
		for _, batch := range cap.snapshot() {
			for _, e := range batch {
				if e.Watermark > lastWM {
					lastWM = e.Watermark
				}
				if e.Kind != replication.EntryHeartbeat {
					data = append(data, e)
				}
			}
		}
		// Normalize what legitimately differs across pipelines: absolute
		// timestamps (clock-drawn) and the per-batch watermark stamping.
		for i := range data {
			data[i].TS = 0
			data[i].Watermark = 0
		}
		return data, lastWM - (pin - 1) // 0 when the watermark sits at pin−1
	}

	seqData, seqWM := run(1)
	batData, batWM := run(64)
	if seqWM != 0 || batWM != 0 {
		t.Fatalf("watermark offset from sequential value: batchmax=1 %d, batchmax=64 %d", seqWM, batWM)
	}
	if len(seqData) != len(batData) {
		t.Fatalf("entry counts differ: batchmax=1 %d, batchmax=64 %d", len(seqData), len(batData))
	}
	for i := range seqData {
		a, b := seqData[i], batData[i]
		if a.Kind != b.Kind || a.TxnID != b.TxnID || a.Seq != b.Seq || len(a.Writes) != len(b.Writes) {
			t.Fatalf("entry %d differs:\n  batchmax=1  %+v\n  batchmax=64 %+v", i, a, b)
		}
	}
}
