package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rsskv/internal/sim"
)

func TestZipfInRange(t *testing.T) {
	z := NewZipf(1000, 0.9)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		if k := z.Next(rng); k >= 1000 {
			t.Fatalf("rank %d out of range", k)
		}
		if k := z.NextScrambled(rng); k >= 1000 {
			t.Fatalf("scrambled rank %d out of range", k)
		}
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	// Higher skew concentrates more mass on the most popular rank.
	hot := func(theta float64) float64 {
		z := NewZipf(10000, theta)
		rng := rand.New(rand.NewSource(7))
		n, total := 0, 200000
		for i := 0; i < total; i++ {
			if z.Next(rng) == 0 {
				n++
			}
		}
		return float64(n) / float64(total)
	}
	h5, h7, h9 := hot(0.5), hot(0.7), hot(0.9)
	if !(h5 < h7 && h7 < h9) {
		t.Errorf("hot-key mass not increasing in skew: %.4f %.4f %.4f", h5, h7, h9)
	}
}

func TestZipfMatchesTheory(t *testing.T) {
	// For theta=0.9 over n keys, P(0) = 1/zeta(n, 0.9). Check empirically.
	const n, theta = 1000, 0.9
	z := NewZipf(n, theta)
	want := 1 / zeta(n, theta)
	rng := rand.New(rand.NewSource(3))
	hits, total := 0, 500000
	for i := 0; i < total; i++ {
		if z.Next(rng) == 0 {
			hits++
		}
	}
	got := float64(hits) / float64(total)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("P(rank 0) = %.4f, want %.4f", got, want)
	}
}

func TestZipfPanics(t *testing.T) {
	for _, bad := range []func(){
		func() { NewZipf(0, 0.5) },
		func() { NewZipf(10, 0) },
		func() { NewZipf(10, 1) },
		func() { NewZipf(10, 1.5) },
		func() { NewUniform(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestScrambledPreservesDistributionSize(t *testing.T) {
	f := func(seed int64) bool {
		z := NewZipf(512, 0.7)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			if z.NextScrambled(rng) >= 512 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestUniform(t *testing.T) {
	u := NewUniform(10)
	rng := rand.New(rand.NewSource(1))
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		k := u.Next(rng)
		if k >= 10 {
			t.Fatalf("uniform rank %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) != 10 {
		t.Errorf("uniform over 10 keys hit only %d", len(seen))
	}
}

func TestRetwisMix(t *testing.T) {
	r := NewRetwis(NewUniform(100000))
	rng := rand.New(rand.NewSource(2))
	counts := map[TxnKind]int{}
	const total = 100000
	roReads := 0
	for i := 0; i < total; i++ {
		txn := r.Next(rng)
		counts[txn.Kind]++
		switch txn.Kind {
		case AddUser:
			if len(txn.ReadKeys) != 1 || len(txn.WriteKeys) != 3 {
				t.Fatalf("add-user shape %d/%d", len(txn.ReadKeys), len(txn.WriteKeys))
			}
		case Follow:
			if len(txn.ReadKeys) != 2 || len(txn.WriteKeys) != 2 {
				t.Fatalf("follow shape %d/%d", len(txn.ReadKeys), len(txn.WriteKeys))
			}
		case PostTweet:
			if len(txn.ReadKeys) != 3 || len(txn.WriteKeys) != 5 {
				t.Fatalf("post-tweet shape %d/%d", len(txn.ReadKeys), len(txn.WriteKeys))
			}
		case LoadTimeline:
			if len(txn.WriteKeys) != 0 {
				t.Fatal("load-timeline has writes")
			}
			if len(txn.ReadKeys) < 1 || len(txn.ReadKeys) > 10 {
				t.Fatalf("load-timeline reads %d keys", len(txn.ReadKeys))
			}
			roReads += len(txn.ReadKeys)
			if !txn.IsReadOnly() || !txn.Kind.ReadOnly() {
				t.Fatal("load-timeline not classified read-only")
			}
		}
	}
	frac := func(k TxnKind) float64 { return float64(counts[k]) / total }
	if math.Abs(frac(AddUser)-0.05) > 0.01 ||
		math.Abs(frac(Follow)-0.15) > 0.01 ||
		math.Abs(frac(PostTweet)-0.30) > 0.01 ||
		math.Abs(frac(LoadTimeline)-0.50) > 0.01 {
		t.Errorf("mix = %.3f/%.3f/%.3f/%.3f, want 0.05/0.15/0.30/0.50",
			frac(AddUser), frac(Follow), frac(PostTweet), frac(LoadTimeline))
	}
	meanReads := float64(roReads) / float64(counts[LoadTimeline])
	if meanReads < 5 || meanReads > 6 {
		t.Errorf("mean timeline reads = %.2f, want ≈5.5", meanReads)
	}
}

func TestRetwisDistinctKeys(t *testing.T) {
	// Even over a tiny hot keyspace, generated key sets must be distinct.
	r := NewRetwis(NewUniform(6))
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		txn := r.Next(rng)
		seen := map[string]bool{}
		for _, k := range append(append([]string{}, txn.ReadKeys...), txn.WriteKeys...) {
			seen[k] = true
		}
		// WriteKeys may repeat ReadKeys by design (read-modify-write),
		// but within each set keys are distinct.
		checkDistinct := func(ks []string) {
			m := map[string]bool{}
			for _, k := range ks {
				if m[k] {
					t.Fatalf("duplicate key %s in %v", k, ks)
				}
				m[k] = true
			}
		}
		checkDistinct(txn.ReadKeys)
		checkDistinct(txn.WriteKeys)
		_ = seen
	}
}

func TestTxnKindString(t *testing.T) {
	names := map[TxnKind]string{
		AddUser: "add-user", Follow: "follow", PostTweet: "post-tweet",
		LoadTimeline: "load-timeline", TxnKind(99): "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestYCSBMix(t *testing.T) {
	y := NewYCSB(1000, 0.3, 0.1)
	rng := rand.New(rand.NewSource(4))
	writes, hot := 0, 0
	const total = 100000
	for i := 0; i < total; i++ {
		op := y.Next(rng)
		if op.IsWrite {
			writes++
		}
		if op.Key == KeyName(0) {
			hot++
		}
	}
	if w := float64(writes) / total; math.Abs(w-0.3) > 0.01 {
		t.Errorf("write ratio = %.3f, want 0.3", w)
	}
	if h := float64(hot) / total; math.Abs(h-0.1) > 0.01 {
		t.Errorf("conflict fraction = %.3f, want 0.1", h)
	}
}

func TestYCSBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n < 2")
		}
	}()
	NewYCSB(1, 0.5, 0.5)
}

func TestPartlyOpen(t *testing.T) {
	p := PartlyOpen{Lambda: 100, Stay: 0.9}
	rng := rand.New(rand.NewSource(5))
	var total sim.Time
	const n = 20000
	for i := 0; i < n; i++ {
		total += p.NextArrival(rng)
	}
	mean := float64(total) / n
	want := float64(sim.Second) / 100
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("mean interarrival = %.0fµs, want %.0fµs", mean, want)
	}
	if got := p.MeanSessionLength(); math.Abs(got-10) > 1e-9 {
		t.Errorf("mean session length = %v, want 10", got)
	}
	cont := 0
	for i := 0; i < n; i++ {
		if p.Continues(rng) {
			cont++
		}
	}
	if f := float64(cont) / n; math.Abs(f-0.9) > 0.01 {
		t.Errorf("continue fraction = %.3f, want 0.9", f)
	}
}

func TestPartlyOpenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for Lambda <= 0")
		}
	}()
	PartlyOpen{}.NextArrival(rand.New(rand.NewSource(1)))
}

func TestKeyName(t *testing.T) {
	if KeyName(42) != "key00000042" {
		t.Errorf("KeyName(42) = %q", KeyName(42))
	}
}

// TestKeyNameMatchesFmt: KeyName builds "key%08d" by hand and must stay
// byte-identical to the format it replaced — every stored key and every
// recorded history depends on it.
func TestKeyNameMatchesFmt(t *testing.T) {
	check := func(k uint64) {
		if got, want := KeyName(k), fmt.Sprintf("key%08d", k); got != want {
			t.Fatalf("KeyName(%d) = %q, want %q", k, got, want)
		}
	}
	for _, k := range []uint64{0, 9, 99_999_999, 100_000_000, math.MaxUint64} {
		check(k)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10_000; i++ {
		check(rng.Uint64() >> uint(rng.Intn(64))) // every magnitude, not just 19-digit ones
	}
	if n := testing.AllocsPerRun(100, func() { _ = KeyName(12345) }); n > 1 {
		t.Errorf("KeyName allocates %.0f objects, want 1 (the result)", n)
	}
}

// TestRetwisStreamUnchanged: the generated transaction stream for a fixed
// seed is part of every benchmark's definition. The hash below was taken at
// the commit before distinctKeys stopped using a map and KeyName stopped
// using fmt; neither change may move a single key.
func TestRetwisStreamUnchanged(t *testing.T) {
	const golden = uint64(0x8b3985d4deb7e83)
	gen := NewRetwis(Scrambled(NewZipf(250_000, 0.75)))
	rng := rand.New(rand.NewSource(1_000_003))
	h := fnv.New64a()
	for i := 0; i < 5000; i++ {
		txn := gen.Next(rng)
		fmt.Fprintf(h, "%d r%q w%q\n", txn.Kind, txn.ReadKeys, txn.WriteKeys)
	}
	if got := h.Sum64(); got != golden {
		t.Errorf("first 5000 Retwis transactions hash to %#x, want %#x: the stream changed", got, golden)
	}
}
