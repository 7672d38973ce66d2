// Package wal is the per-shard write-ahead log that makes the serving
// layer durable. Each shard's apply loop owns one Log and appends a
// record for every prepare, commit, and abort it applies; records are
// buffered in memory and written + fsynced once per apply-loop drain
// (group commit), so durability costs at most one fsync per apply batch
// — it rides the same batching that already amortizes the replication
// append (PR 7) instead of adding a per-entry sync.
//
// A response is released to a client only after the record that justifies
// it is durable (the owning loop releases responses after a successful
// Sync), and that discipline extends to reads: a read response waits for
// the durability of everything it observed, so no client — and no follower
// replica, because entries are offered to transports only after their
// batch's fsync — can ever witness state a crash could take back. That is
// the invariant crash recovery leans on: anything observed is durable, so
// replaying the log reconstructs a state consistent with every response
// the old process released.
//
// On-disk layout (one directory per shard):
//
//	shard-0007/
//	    checkpoint            full mvstore dump at a known log position
//	    checkpoint.tmp        in-progress checkpoint (ignored at recovery)
//	    wal-0000000000000001.log   segments, named by first record LSN
//	    wal-0000000000004301.log
//
// Records are length-prefixed and CRC-framed (4-byte big-endian payload
// length, 4-byte CRC32-Castagnoli of the payload, then the payload in the
// varint vocabulary of internal/wire). Recovery replays the checkpoint
// and then every record after its cut, stopping cleanly at the first
// record whose frame or checksum is invalid: a torn tail — the half
// batch a crash left behind — is truncated, never half-applied and never
// a panic. A checkpoint is written to checkpoint.tmp, fsynced, and
// renamed into place, so a crash mid-checkpoint leaves the previous
// checkpoint and the full log intact; segments below the checkpoint's
// cut are deleted only after the rename is durable.
//
// The CrashAt hooks simulate kill -9 at the worst instants — after a
// batch's bytes land but before its fsync, before the bytes land at all,
// mid-checkpoint, and after a 2PC prepare is durable but before its
// commit — and are what the server's crash-point test matrix drives.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"rsskv/internal/wire"
)

// Kind classifies WAL records. The values mirror replication.EntryKind
// (heartbeats are never logged: they carry no state).
type Kind uint8

const (
	// KindPrepare records a transaction entering the shard's prepared
	// set: its prepare timestamp t_p, advertised earliest end time t_ee,
	// and — unlike the replication entry, which followers don't need it
	// for — the shard's buffered write set, so recovery can rebuild the
	// prepared entry and re-acquire its exclusive lock footprint.
	KindPrepare Kind = iota + 1
	// KindCommit records a commit: Writes installed at TS.
	KindCommit
	// KindAbort records a prepared transaction resolving as aborted.
	KindAbort
	// KindReprepare is a still-unresolved prepare re-logged right after a
	// checkpoint rotation, so the prepare survives the truncation of the
	// segments the checkpoint covers. Recovery treats it exactly like
	// KindPrepare (later records for the same transaction supersede it),
	// but it corresponds to no new replication entry — the followers saw
	// the original prepare — so seq reassignment skips it.
	KindReprepare
)

// Record is one durable log record.
type Record struct {
	// Kind selects prepare, commit, or abort.
	Kind Kind
	// TxnID identifies the transaction (a one-shot put's lock sequence
	// number for single-key commits).
	TxnID uint64
	// TS is the prepare timestamp of a KindPrepare or the commit
	// timestamp of a KindCommit (0 for aborts).
	TS int64
	// TEE is a prepare's advertised earliest end time (0 otherwise).
	TEE int64
	// Watermark is the shard's safe-time watermark, stamped on the tail
	// record of each synced batch (0 elsewhere), mirroring the
	// replication batch contract: every commit at or below it precedes
	// this record in the log.
	Watermark int64
	// Epoch is the view epoch the leader held when it logged the record.
	// Recovery surfaces the maximum seen, so a restarted leader rejoins
	// at the epoch it last served — and a deposed leader's replayed state
	// is recognizably stale next to the promoted leader's higher epoch.
	Epoch uint64
	// Writes is the shard's write set for prepares and commits.
	Writes []wire.KV
}

// CrashPoint selects a simulated kill -9 instant for the crash-point
// test matrix. The log (and through OnCrash, the whole server) dies at
// the CrashAfter'th qualifying event.
type CrashPoint uint8

const (
	// CrashNone disables crash injection.
	CrashNone CrashPoint = iota
	// CrashAfterAppend crashes after a batch's bytes reach the file but
	// before fsync — and the bytes survive, modelling a kernel that
	// flushed the page cache before the power went: recovery must treat
	// the unacknowledged batch as committed history if it finds it.
	CrashAfterAppend
	// CrashBeforeFsync crashes before a batch's bytes reach the file at
	// all — the page cache was lost with the process. The batch's
	// operations were never acknowledged (Sync fails), so recovery
	// legitimately never sees them.
	CrashBeforeFsync
	// CrashMidCheckpoint crashes after checkpoint.tmp is written but
	// before it is renamed into place or any segment is deleted:
	// recovery must ignore the tmp and replay the previous checkpoint
	// plus the full log.
	CrashMidCheckpoint
	// CrashAfterPrepare crashes immediately after a sync whose batch
	// contained a prepare record: the prepare is durable, the commit or
	// abort that would resolve it never lands, and recovery must restore
	// the prepared transaction and resolve it (commit if any shard logged
	// the commit record, abort otherwise).
	CrashAfterPrepare
)

// ErrCrashed reports an operation on a log that hit its crash point (or
// was crashed explicitly): the process is considered dead and no further
// durability can be promised.
var ErrCrashed = fmt.Errorf("wal: crashed")

// ErrFenced reports an append or sync refused because the log was fenced
// out of its view: a newer epoch leads the shard group, so nothing this
// process writes may ever be acknowledged again.
var ErrFenced = fmt.Errorf("wal: fenced")

// Config parameterizes Open.
type Config struct {
	// Dir is the shard's log directory, created if missing.
	Dir string
	// CrashAt injects a crash at the selected point (tests only).
	CrashAt CrashPoint
	// CrashAfter is which qualifying event crashes (1-based; 0 means
	// the first).
	CrashAfter int
	// OnCrash, if set, runs once when the crash point fires (or Crash is
	// called), after the log is marked dead — the server hooks it to tear
	// itself down the way a kill -9 would.
	OnCrash func()
}

// Log is one shard's append-only write-ahead log with group commit.
// Append, Sync, AppendedLSN, Rotate, and Close must be called from a
// single goroutine (the shard apply loop); Crash, Fence, and the stats
// accessors are safe from any goroutine. LSNs are 1-based record
// positions over the log's whole history, stable across restarts.
type Log struct {
	cfg Config
	dir string

	f       *os.File
	fname   string
	pending []Record // appended since the last Sync (loop-only)
	encBuf  []byte   // encode scratch (loop-only)

	appended uint64 // LSN of the last appended record (loop-only)
	durable  atomic.Uint64
	crashed  atomic.Bool
	fenced   atomic.Bool
	events   atomic.Int64 // qualifying crash events seen
	fsyncs   atomic.Uint64
	bytes    atomic.Uint64
}

// Open recovers the log directory and returns the live Log (appending
// into a fresh segment after the last valid record) together with what
// recovery found: the newest durable checkpoint, and every valid record
// after its cut, in order. A torn or corrupt tail on the final segment is
// truncated; corruption anywhere else is an error, because skipping past
// it would silently drop acknowledged history.
func Open(cfg Config) (*Log, *Recovered, error) {
	if cfg.Dir == "" {
		return nil, nil, fmt.Errorf("wal: empty dir")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	rec, err := recoverDir(cfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{
		cfg:      cfg,
		dir:      cfg.Dir,
		appended: rec.LSN,
	}
	l.durable.Store(rec.LSN)
	if err := l.openSegment(rec.LSN + 1); err != nil {
		return nil, nil, err
	}
	return l, rec, nil
}

func segmentName(firstLSN uint64) string {
	return fmt.Sprintf("wal-%016d.log", firstLSN)
}

// segmentFirstLSN parses a segment file name, reporting ok=false for
// non-segment directory entries.
func segmentFirstLSN(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len("wal-"):len(name)-len(".log")], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

func (l *Log) openSegment(firstLSN uint64) error {
	name := filepath.Join(l.dir, segmentName(firstLSN))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f, l.fname = f, name
	return nil
}

// Append buffers one record and returns its LSN. The record is not
// durable until the Sync that covers it; callers releasing a response on
// its strength must wait for that Sync to succeed. Returns 0 after a
// crash or fence. Loop-only.
func (l *Log) Append(r Record) uint64 {
	if l.crashed.Load() || l.fenced.Load() {
		return 0
	}
	l.pending = append(l.pending, r)
	l.appended++
	return l.appended
}

// AppendedLSN returns the LSN of the last appended record — what a read
// served now must wait durable on, since everything it can observe was
// appended at or before it. Loop-only.
func (l *Log) AppendedLSN() uint64 { return l.appended }

// Pending reports the number of buffered, not-yet-synced records.
// Loop-only.
func (l *Log) Pending() int { return len(l.pending) }

// Sync writes and fsyncs the pending batch, stamping the shard's
// safe-time watermark on its tail record, and advances the durable LSN.
// One call per apply-loop drain is the group-commit contract: at most one
// fsync per apply batch. It returns the number of bytes written. A nil
// error with 0 bytes means the batch was empty (no fsync was paid).
// Loop-only.
func (l *Log) Sync(watermark int64) (int, error) {
	if l.crashed.Load() {
		return 0, ErrCrashed
	}
	if l.fenced.Load() {
		return 0, ErrFenced
	}
	if len(l.pending) == 0 {
		return 0, nil
	}
	l.pending[len(l.pending)-1].Watermark = watermark
	hasPrepare := false
	for i := range l.pending {
		if l.pending[i].Kind == KindPrepare {
			hasPrepare = true
			break
		}
	}
	if l.cfg.CrashAt == CrashBeforeFsync && l.trip() {
		// The batch's bytes never reach the file: the page cache died
		// with the process. Everything in it was unacknowledged.
		l.pending = l.pending[:0]
		l.crash()
		return 0, ErrCrashed
	}
	buf := l.encBuf[:0]
	for i := range l.pending {
		buf = appendFramedRecord(buf, &l.pending[i])
	}
	l.encBuf = buf[:0]
	if _, err := l.f.Write(buf); err != nil {
		l.crash()
		return 0, fmt.Errorf("wal: write %s: %w", l.fname, err)
	}
	if l.cfg.CrashAt == CrashAfterAppend && l.trip() {
		// Bytes written, fsync skipped — and, by luck, the kernel keeps
		// them: recovery will find a batch no client was ever acked.
		l.pending = l.pending[:0]
		l.crash()
		return len(buf), ErrCrashed
	}
	if err := l.f.Sync(); err != nil {
		l.crash()
		return 0, fmt.Errorf("wal: fsync %s: %w", l.fname, err)
	}
	l.fsyncs.Add(1)
	l.bytes.Add(uint64(len(buf)))
	n := len(l.pending)
	clear(l.pending) // the idle buffer must not pin the batch's write sets
	l.pending = l.pending[:0]
	l.durable.Add(uint64(n))
	if l.cfg.CrashAt == CrashAfterPrepare && hasPrepare && l.trip() {
		// The prepare is durable; the process dies before any later
		// batch (the one carrying the commit or abort) can be appended.
		l.crash()
		return len(buf), ErrCrashed
	}
	return len(buf), nil
}

// trip counts one qualifying crash event and reports whether it is the
// configured one.
func (l *Log) trip() bool {
	after := int64(l.cfg.CrashAfter)
	if after <= 0 {
		after = 1
	}
	return l.events.Add(1) == after
}

// crash marks the log dead and fires OnCrash once.
func (l *Log) crash() {
	if l.crashed.Swap(true) {
		return
	}
	if l.cfg.OnCrash != nil {
		l.cfg.OnCrash()
	}
}

// Crash kills the log from outside (the server's kill -9 analogue):
// everything synced so far stays durable, every future Sync fails — so
// nothing more is acknowledged — and appends are dropped. Safe from any
// goroutine.
func (l *Log) Crash() { l.crash() }

// Fence marks the log fenced out of its view: a newer epoch leads the
// shard group. Durability already synced stands, but every future Append
// is dropped and every future Sync fails with ErrFenced — a deposed leader
// can neither extend its log nor acknowledge in-flight writes the new view
// will never hold. Safe from any goroutine.
func (l *Log) Fence() { l.fenced.Store(true) }

// Fenced reports whether the log has been fenced.
func (l *Log) Fenced() bool { return l.fenced.Load() }

// Crashed reports whether the log hit its crash point or was crashed.
func (l *Log) Crashed() bool { return l.crashed.Load() }

// Fsyncs returns how many fsyncs the log has paid (group commit makes
// this at most one per apply batch).
func (l *Log) Fsyncs() uint64 { return l.fsyncs.Load() }

// Bytes returns the total bytes written and synced.
func (l *Log) Bytes() uint64 { return l.bytes.Load() }

// DurableLSN returns the newest durable record position.
func (l *Log) DurableLSN() uint64 { return l.durable.Load() }

// Rotate closes the current segment and starts a fresh one at the next
// LSN. It must be called with no pending records (after a Sync) — the
// checkpoint cut point — so the new segment begins exactly where the
// checkpoint's coverage ends. Loop-only.
func (l *Log) Rotate() error {
	if len(l.pending) != 0 {
		return fmt.Errorf("wal: rotate with %d pending records", len(l.pending))
	}
	if l.crashed.Load() {
		return ErrCrashed
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openSegment(l.appended + 1)
}

// RemoveObsoleteSegments deletes every non-active segment whose records
// all fall at or below cutLSN — called after a checkpoint covering cutLSN
// is durably in place. The active segment always survives.
func (l *Log) RemoveObsoleteSegments(cutLSN uint64) error {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	type seg struct {
		name  string
		first uint64
	}
	var segs []seg
	for _, e := range ents {
		if first, ok := segmentFirstLSN(e.Name()); ok {
			segs = append(segs, seg{e.Name(), first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	for i, s := range segs {
		full := filepath.Join(l.dir, s.name)
		if full == l.fname {
			continue
		}
		// A segment's records end where the next segment begins.
		last := uint64(1<<63 - 1)
		if i+1 < len(segs) {
			last = segs[i+1].first - 1
		}
		if last <= cutLSN {
			if err := os.Remove(full); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close syncs any pending records and closes the segment file. A crashed
// log closes without syncing (the crash already froze durability).
func (l *Log) Close() error {
	if !l.crashed.Load() {
		if _, err := l.Sync(0); err != nil && err != ErrCrashed && err != ErrFenced {
			return err
		}
	}
	return l.f.Close()
}
