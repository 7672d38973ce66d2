package replication

import (
	"testing"
	"time"

	"rsskv/internal/truetime"
	"rsskv/internal/wire"
)

// rewrite appends n commits of key at timestamps from+10, from+20, …, each
// carrying watermark and floor equal to its predecessor's timestamp — a
// leader with no read in flight — and returns the last timestamp.
func rewrite(g *Group, key string, from truetime.Timestamp, n int) truetime.Timestamp {
	ts := from
	for i := 0; i < n; i++ {
		prev := ts
		ts += 10
		g.AppendBatch([]Entry{{
			Kind: EntryCommit, TxnID: uint64(ts), TS: ts, Watermark: ts, Floor: prev,
			Writes: []wire.KV{{Key: key, Value: "v"}},
		}})
	}
	return ts
}

// TestFollowerFollowsShippedFloor: a follower advances its store to the
// floor its entries carry, so rewrites stop growing its chains; it serves
// reads at or above the floor and refuses a read below it, which the
// leader's side of the transport counts — over both transports.
func TestFollowerFollowsShippedFloor(t *testing.T) {
	check := func(t *testing.T, g *Group, f Transport, versions func() int) {
		last := rewrite(g, "k", 0, 200)
		vals, ok, _ := f.Read(last, []string{"k"}, readTimeout)
		if !ok || vals[0].TS != last {
			t.Fatalf("read at the newest commit = %+v ok=%v", vals, ok)
		}
		if vals, ok, _ = f.Read(last-5, []string{"k"}, readTimeout); !ok || vals[0].TS != last-10 {
			t.Fatalf("read between the floor and the newest commit = %+v ok=%v, want the version at %d", vals, ok, last-10)
		}
		if n := g.BelowFloor(); n != 0 {
			t.Fatalf("below-floor count %d before any read below the floor", n)
		}
		if _, ok, _ := f.Read(last-15, []string{"k"}, readTimeout); ok {
			t.Error("follower served a read below its floor")
		}
		if n := g.BelowFloor(); n != 1 {
			t.Errorf("below-floor count %d after one read below the floor, want 1", n)
		}
		if n := versions(); n > 2 {
			t.Errorf("follower holds %d versions of a key rewritten 200 times under a following floor, want at most 2", n)
		}
	}
	t.Run("chan", func(t *testing.T) {
		g := NewGroup(0, 1, Chaos{})
		defer g.Close()
		check(t, g, g.Transport(0), func() int {
			st, _, _ := chanT(t, g, 0).r.extract(true)
			return st.Versions("k")
		})
	})
	t.Run("sock", func(t *testing.T) {
		l := newTestLeader(t)
		n := startTestNode(t, l, Chaos{})
		waitFor(t, "node registration", func() bool { return l.g.Transports() == 1 })
		check(t, l.g, l.transport(t, n), func() int {
			st, _, _ := n.ExtractShard(0, true)
			return st.Versions("k")
		})
	})
}

// TestAbandonedFollowerReadIsNotCounted: the floor stops waiting for a read
// when its coordinator does, so a read the caller timed out on can find
// itself below the floor when its turn comes. It is refused like any other,
// but it is nobody's read any more and must not trip the wire.
func TestAbandonedFollowerReadIsNotCounted(t *testing.T) {
	g := NewGroup(0, 1, Chaos{})
	defer g.Close()
	f := g.Transport(0)
	appendOne(g, EntryCommit, 1, 10, 10, []wire.KV{{Key: "k", Value: "v1"}})
	if _, ok, abandoned := f.Read(50, []string{"k"}, 5*time.Millisecond); ok || !abandoned {
		t.Fatalf("read above the watermark: ok=%v abandoned=%v, want a timeout", ok, abandoned)
	}
	// The watermark now covers the parked read, and the floor is past it.
	g.AppendBatch([]Entry{{Kind: EntryCommit, TxnID: 2, TS: 60, Watermark: 60, Floor: 55, Writes: []wire.KV{{Key: "k", Value: "v2"}}}})
	if vals, ok, _ := f.Read(60, []string{"k"}, readTimeout); !ok || vals[0].Value != "v2" {
		t.Fatalf("read behind the abandoned one = %+v ok=%v", vals, ok)
	}
	if n := g.BelowFloor(); n != 0 {
		t.Errorf("the abandoned read was counted below the floor (%d)", n)
	}
}
