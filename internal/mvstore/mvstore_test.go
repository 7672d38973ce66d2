package mvstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"rsskv/internal/truetime"
)

func TestReadAtBasics(t *testing.T) {
	s := New()
	if v := s.ReadAt("k", 100); v.TS != 0 || v.Value != "" {
		t.Errorf("read of unwritten key = %+v", v)
	}
	s.Write("k", "a", 10)
	s.Write("k", "b", 20)
	s.Write("k", "c", 30)
	cases := []struct {
		ts   int64
		want string
	}{{5, ""}, {10, "a"}, {15, "a"}, {20, "b"}, {29, "b"}, {30, "c"}, {1000, "c"}}
	for _, c := range cases {
		if v := s.ReadAt("k", truetimeTS(c.ts)); v.Value != c.want {
			t.Errorf("ReadAt(%d) = %q, want %q", c.ts, v.Value, c.want)
		}
	}
}

func truetimeTS(x int64) truetime.Timestamp { return truetime.Timestamp(x) }

func TestOutOfOrderInsert(t *testing.T) {
	s := New()
	s.Write("k", "c", 30)
	s.Write("k", "a", 10)
	s.Write("k", "b", 20)
	if v := s.ReadAt("k", 25); v.Value != "b" || v.TS != 20 {
		t.Errorf("ReadAt(25) = %+v", v)
	}
	if s.Versions("k") != 3 {
		t.Errorf("versions = %d", s.Versions("k"))
	}
}

func TestIdempotentReapply(t *testing.T) {
	s := New()
	s.Write("k", "a", 10)
	s.Write("k", "a2", 10) // re-apply at same timestamp overwrites
	if s.Versions("k") != 1 {
		t.Errorf("versions = %d, want 1", s.Versions("k"))
	}
	if v := s.Latest("k"); v.Value != "a2" {
		t.Errorf("latest = %+v", v)
	}
}

func TestLatestAndMaxTS(t *testing.T) {
	s := New()
	if s.MaxTS("k") != 0 {
		t.Error("MaxTS of unwritten key != 0")
	}
	s.Write("k", "a", 10)
	s.Write("k", "b", 5)
	if v := s.Latest("k"); v.Value != "a" || v.TS != 10 {
		t.Errorf("latest = %+v", v)
	}
	if s.MaxTS("k") != 10 {
		t.Errorf("MaxTS = %d", s.MaxTS("k"))
	}
}

// TestWriteTrimsToFloor: versions older than the newest one at or below the
// floor go at the chain's next write, not before; reads at or above the
// floor are unchanged, and the newest version survives any floor.
func TestWriteTrimsToFloor(t *testing.T) {
	s := New()
	for i := int64(1); i <= 10; i++ {
		s.Write("k", "v", truetimeTS(i*10))
	}
	s.Advance(55)
	if s.Versions("k") != 10 || s.Len() != 10 {
		t.Errorf("Advance alone dropped versions: %d in the chain, Len %d", s.Versions("k"), s.Len())
	}
	s.Write("k", "v", 110)
	if s.Versions("k") != 7 || s.Len() != 7 { // version at 50 plus 60..110
		t.Errorf("after the write: %d versions, Len %d, want 7", s.Versions("k"), s.Len())
	}
	if v := s.ReadAt("k", 55); v.TS != 50 {
		t.Errorf("ReadAt(55) after trim = %+v", v)
	}
	s.Advance(40) // a floor never regresses
	s.Advance(1000)
	s.Write("k", "late", 45) // superseded on arrival
	if s.Versions("k") != 1 || s.Len() != 1 {
		t.Errorf("floor above every version: %d versions, Len %d, want the newest only", s.Versions("k"), s.Len())
	}
	if v := s.ReadAt("k", 1000); v.TS != 110 {
		t.Errorf("ReadAt(1000) = %+v, want the version at 110", v)
	}
}

// TestTrimQuick is the store's side of the floor contract, against an
// oracle store whose floor never moves: under random writes in random order
// (below the floor too, as a late two-phase commit lands) interleaved with
// random Advance calls, every read at or above the floor, Latest, MaxTS and
// MaxTSAll agree with the oracle; the chain just written holds at most one
// version at or below the floor; Len counts what Dump visits; and a store
// rebuilt from the dump answers reads at or above the floor the same.
func TestTrimQuick(t *testing.T) {
	keys := []string{"a", "b", "c"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, oracle := New(), New()
		var floor truetime.Timestamp
		agree := func(got *Store) bool {
			for _, k := range keys {
				for probe := floor; probe < floor+300; probe += 17 {
					if got.ReadAt(k, probe) != oracle.ReadAt(k, probe) {
						return false
					}
				}
			}
			return true
		}
		for step := 0; step < 300; step++ {
			if rng.Intn(4) == 0 {
				to := floor + truetime.Timestamp(rng.Int63n(60)) - 10 // sometimes backwards: ignored
				s.Advance(to)
				if to > floor {
					floor = to
				}
				continue
			}
			k := keys[rng.Intn(len(keys))]
			ts := floor + truetime.Timestamp(rng.Int63n(200)) - 80
			if ts < 1 {
				ts = 1
			}
			v := fmt.Sprintf("%s@%d", k, ts)
			s.Write(k, v, ts)
			oracle.Write(k, v, ts)
			atOrBelow := 0
			for _, ver := range s.chain(k) {
				if ver.TS <= floor {
					atOrBelow++
				}
			}
			if atOrBelow > 1 {
				return false
			}
			if s.Latest(k) != oracle.Latest(k) || s.MaxTS(k) != oracle.MaxTS(k) || s.MaxTSAll() != oracle.MaxTSAll() {
				return false
			}
			if !agree(s) {
				return false
			}
		}
		rebuilt, visited := New(), 0
		s.Dump(func(key string, v Version) {
			visited++
			rebuilt.Write(key, v.Value, v.TS)
		})
		return visited == s.Len() && rebuilt.Len() == s.Len() && agree(rebuilt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: ReadAt returns the version with the largest TS ≤ ts regardless
// of insertion order.
func TestReadAtQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		k := "key"
		type ver struct {
			ts int64
			v  string
		}
		count := int(n%20) + 1
		used := map[int64]bool{}
		var vs []ver
		for i := 0; i < count; i++ {
			ts := rng.Int63n(1000) + 1
			if used[ts] {
				continue
			}
			used[ts] = true
			v := ver{ts: ts, v: string(rune('a' + i))}
			vs = append(vs, v)
			s.Write(k, v.v, truetimeTS(v.ts))
		}
		for probe := int64(0); probe <= 1000; probe += 37 {
			var want ver
			for _, v := range vs {
				if v.ts <= probe && v.ts > want.ts {
					want = v
				}
			}
			got := s.ReadAt(k, truetimeTS(probe))
			if int64(got.TS) != want.ts || got.Value != want.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestReadBelowOldest pins the left boundary the server's snapshot-read
// path relies on: a read strictly below the oldest version returns the
// paper's null (zero Version), a read exactly at the oldest returns it,
// and the boundary holds however deep the version chain is.
func TestReadBelowOldest(t *testing.T) {
	s := New()
	for i := int64(1); i <= 8; i++ {
		s.Write("k", "v", truetimeTS(i*100))
	}
	if v := s.ReadAt("k", 99); v.TS != 0 || v.Value != "" {
		t.Errorf("ReadAt below oldest = %+v, want zero Version", v)
	}
	if v := s.ReadAt("k", 100); v.TS != 100 {
		t.Errorf("ReadAt exactly at oldest = %+v, want TS 100", v)
	}
	if v := s.ReadAt("k", 0); v.TS != 0 {
		t.Errorf("ReadAt(0) = %+v, want zero Version", v)
	}
	// Negative snapshot timestamps (the chaos-lowered t_read clamps at 0,
	// but the store itself must not misbehave) read as before-everything.
	if v := s.ReadAt("k", -1); v.TS != 0 {
		t.Errorf("ReadAt(-1) = %+v, want zero Version", v)
	}
}

// TestReapplyDuringWoundRetry simulates the server's wound-retry shape: a
// transaction's write set is re-applied at its commit timestamp (e.g. a
// replayed apply after a partial failure). The chain must neither grow nor
// reorder, and reads on both sides of the timestamp must be unaffected.
func TestReapplyDuringWoundRetry(t *testing.T) {
	s := New()
	s.Write("k", "before", 10)
	s.Write("k", "txn", 20)
	s.Write("k", "after", 30)
	for attempt := 0; attempt < 3; attempt++ {
		s.Write("k", "txn", 20) // idempotent re-apply mid-chain
	}
	if n := s.Versions("k"); n != 3 {
		t.Fatalf("versions = %d after re-applies, want 3", n)
	}
	cases := []struct {
		ts   int64
		want string
	}{{19, "before"}, {20, "txn"}, {29, "txn"}, {30, "after"}}
	for _, c := range cases {
		if v := s.ReadAt("k", truetimeTS(c.ts)); v.Value != c.want {
			t.Errorf("ReadAt(%d) = %q, want %q", c.ts, v.Value, c.want)
		}
	}
}

// TestDumpReproducesStore: installing every dumped version into a fresh
// store reproduces the original exactly — the property replication
// catch-up snapshots rely on.
func TestDumpReproducesStore(t *testing.T) {
	s := New()
	s.Write("a", "a1", 10)
	s.Write("a", "a2", 25)
	s.Write("b", "b1", 7)
	s.Write("c", "", 40) // empty value is a real version, not a hole

	n := 0
	copyStore := New()
	s.Dump(func(key string, v Version) {
		n++
		copyStore.Write(key, v.Value, v.TS)
	})
	if n != 4 {
		t.Fatalf("dump visited %d versions, want 4", n)
	}
	for _, c := range []struct {
		key  string
		ts   int64
		want string
	}{{"a", 10, "a1"}, {"a", 24, "a1"}, {"a", 25, "a2"}, {"b", 7, "b1"}, {"b", 6, ""}, {"c", 40, ""}} {
		got, want := copyStore.ReadAt(c.key, truetimeTS(c.ts)), s.ReadAt(c.key, truetimeTS(c.ts))
		if got != want {
			t.Errorf("copy.ReadAt(%s,%d) = %+v, original %+v", c.key, c.ts, got, want)
		}
		if got.Value != c.want {
			t.Errorf("copy.ReadAt(%s,%d) = %q, want %q", c.key, c.ts, got.Value, c.want)
		}
	}
}

// liveHeap returns the heap in use once everything unreachable is collected.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRetentionWriteOwnsKey: the keys Write is handed are views into a
// decoded frame (package wire), and the store must not keep the frame alive
// through them — neither when it inserts a key nor when it writes a key it
// already has. The second case is the subtle one: assigning to a Go map
// through an equal string key re-points the stored key at the new string,
// so a store that wrote its map on every Write would pin the frame of the
// most recent write to every key.
func TestRetentionWriteOwnsKey(t *testing.T) {
	const (
		keys  = 64
		frame = 256 << 10 // what each key is a view into
	)
	view := func(i int) string {
		big := strings.Repeat("x", frame) + fmt.Sprintf("key%08d", i)
		return big[frame:]
	}
	s := New()
	before := liveHeap()
	for i := 0; i < keys; i++ {
		s.Write(view(i), "v1", 1) // inserts
	}
	if grew := int64(liveHeap() - before); grew > 1<<20 {
		t.Errorf("inserting %d keys that are views into %d KiB frames grew the live heap by %d KiB: the store kept the frames",
			keys, frame>>10, grew>>10)
	}
	for i := 0; i < keys; i++ {
		s.Write(view(i), "v2", 2) // existing keys
	}
	if grew := int64(liveHeap() - before); grew > 1<<20 {
		t.Errorf("rewriting %d existing keys through views into %d KiB frames grew the live heap by %d KiB: the store re-pointed its keys at the frames",
			keys, frame>>10, grew>>10)
	}
	if got := s.Latest(fmt.Sprintf("key%08d", keys-1)); got.Value != "v2" || got.TS != 2 {
		t.Errorf("Latest = %+v after both writes", got)
	}
	runtime.KeepAlive(s)
}
