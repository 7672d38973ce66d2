//go:build !race

package locks

import (
	"fmt"
	"testing"
)

// TestAcquireReleaseAllocs pins the steady-state cost of a transaction's
// trip through the lock table at zero heap objects: lock states, the
// per-transaction key slices and ReleaseAll's scratch all come from the
// manager's free lists. (Before them: a lockState and a holders array per
// key, a held slice per transaction, a touched map and a sorted key slice
// per release.) Not under -race: the detector's instrumentation allocates.
func TestAcquireReleaseAllocs(t *testing.T) {
	m := NewManager()
	m.OnGrant = func(Request) {}
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%08d", i)
	}
	seq := uint64(0)
	cycle := func() {
		seq++
		txn := TxnID{Seq: seq}
		for i, k := range keys {
			mode := Shared
			if i%2 == 0 {
				mode = Exclusive
			}
			if m.Acquire(Request{Txn: txn, Key: k, Mode: mode, Prio: int64(seq)}) != Granted {
				t.Fatalf("uncontended acquire of %s not granted", k)
			}
		}
		m.Flush()
		m.ReleaseAll(txn)
		m.Flush()
	}
	if got := testing.AllocsPerRun(500, cycle); got != 0 {
		t.Errorf("acquire-8/Flush/ReleaseAll/Flush allocates %.1f objects per cycle, want 0", got)
	}

	// The contended path recycles too: a younger holder, an older waiter
	// that wounds it, the victim's release, the grant, the release.
	contended := func() {
		seq += 2
		older, younger := TxnID{Seq: seq - 1}, TxnID{Seq: seq}
		m.Acquire(Request{Txn: younger, Key: keys[0], Mode: Exclusive, Prio: int64(younger.Seq)})
		if m.Acquire(Request{Txn: older, Key: keys[0], Mode: Exclusive, Prio: int64(older.Seq)}) != Waiting {
			t.Fatal("conflicting acquire did not wait")
		}
		m.Flush()
		m.ReleaseAll(younger)
		m.Flush()
		m.ReleaseAll(older)
		m.Flush()
	}
	if got := testing.AllocsPerRun(500, contended); got != 0 {
		t.Errorf("wound/wait/grant cycle allocates %.1f objects, want 0", got)
	}
}
