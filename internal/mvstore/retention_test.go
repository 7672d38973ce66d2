//go:build !race

package mvstore

import (
	"fmt"
	"runtime"
	"testing"

	"rsskv/internal/truetime"
)

// TestRetentionRewriteStaysFlat: a store whose floor follows its writes is
// bounded by its keys, not by its history. 200 000 rewrites of 64 keys
// leave the live heap where it was, and a rewrite allocates nothing: the
// version it drops frees the slot the new one takes.
func TestRetentionRewriteStaysFlat(t *testing.T) {
	const (
		keys     = 64
		rewrites = 200_000
	)
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("key%08d", i)
	}
	s := New()
	ts := truetime.Timestamp(0)
	round := func(n int) {
		for i := 0; i < n; i++ {
			ts++
			s.Write(names[i%keys], fmt.Sprintf("value-%026d", ts), ts)
			s.Advance(ts) // every chain still keeps one superseded version until its next write
		}
	}
	round(4 * keys) // every chain reaches the array it will stay in
	before := liveHeap()
	round(rewrites)
	if grew := int64(liveHeap()) - int64(before); grew > 64<<10 {
		t.Errorf("%d rewrites of %d keys under an advancing floor grew the live heap by %d KiB", rewrites, keys, grew>>10)
	}
	if n := s.Len(); n > 2*keys {
		t.Errorf("store holds %d versions of %d keys", n, keys)
	}
	i, value := 0, "handed-in"
	if allocs := testing.AllocsPerRun(1000, func() {
		ts++
		i++
		s.Write(names[i%keys], value, ts)
		s.Advance(ts)
	}); allocs != 0 {
		t.Errorf("a rewrite under an advancing floor allocates %.1f objects beyond its value, want 0", allocs)
	}
	runtime.KeepAlive(s)
}
