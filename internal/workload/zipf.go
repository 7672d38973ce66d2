// Package workload generates the workloads used in the paper's evaluation:
// the Retwis transaction mix over Zipfian-distributed keys (§6) and the
// YCSB read/write mix with a conflict-rate knob (§7), plus the partly-open
// and closed-loop client session models (§6, [80]).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
)

// Zipf draws ranks in [0, n) with P(rank=k) ∝ 1/(k+1)^theta for
// 0 < theta < 1, using the rejection-inversion-free YCSB algorithm
// (Gray et al., SIGMOD '94), the same family cited by the paper [38].
// Rank 0 is the most popular item.
//
// The standard library's rand.Zipf requires exponent s > 1, but the
// paper's skews are 0.5–0.9, so we implement the sub-critical case here.
type Zipf struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	half  float64 // 0.5^theta
}

// NewZipf constructs a generator over [0, n) with skew theta in (0, 1).
// Construction is O(n) (it computes the generalized harmonic number), so
// build once and share between clients.
func NewZipf(n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("workload: Zipf over empty range")
	}
	if theta <= 0 || theta >= 1 {
		panic(fmt.Sprintf("workload: Zipf skew %v out of (0,1)", theta))
	}
	zetan := zeta(n, theta)
	z := &Zipf{
		n:     n,
		theta: theta,
		alpha: 1 / (1 - theta),
		zetan: zetan,
		half:  math.Pow(0.5, theta),
	}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// N returns the size of the key space.
func (z *Zipf) N() uint64 { return z.n }

// Theta returns the skew parameter.
func (z *Zipf) Theta() float64 { return z.theta }

// Next draws a rank using rng.
func (z *Zipf) Next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// NextScrambled draws a rank and scatters it over the key space with an
// FNV-1a hash so hot keys are not adjacent, as YCSB's scrambled Zipfian
// does. The distribution of popularity is unchanged.
func (z *Zipf) NextScrambled(rng *rand.Rand) uint64 {
	return fnv64(z.Next(rng)) % z.n
}

func fnv64(x uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= prime
		x >>= 8
	}
	return h
}

// Uniform draws uniformly from [0, n).
type Uniform struct{ n uint64 }

// NewUniform constructs a uniform chooser over [0, n).
func NewUniform(n uint64) *Uniform {
	if n == 0 {
		panic("workload: Uniform over empty range")
	}
	return &Uniform{n: n}
}

// Next draws a rank using rng.
func (u *Uniform) Next(rng *rand.Rand) uint64 { return uint64(rng.Int63n(int64(u.n))) }

// N returns the size of the key space.
func (u *Uniform) N() uint64 { return u.n }

// KeyChooser abstracts Zipf and Uniform key selection.
type KeyChooser interface {
	Next(rng *rand.Rand) uint64
	// N is the size of the key space.
	N() uint64
}

var (
	_ KeyChooser = (*Uniform)(nil)
	_ KeyChooser = zipfScrambled{}
)

// Scrambled adapts a Zipf to the KeyChooser interface using scrambled draws.
func Scrambled(z *Zipf) KeyChooser { return zipfScrambled{z} }

type zipfScrambled struct{ z *Zipf }

func (s zipfScrambled) Next(rng *rand.Rand) uint64 { return s.z.NextScrambled(rng) }
func (s zipfScrambled) N() uint64                  { return s.z.n }

// KeyName formats rank k as the canonical database key string, "key%08d".
// Built by hand because every generated transaction pays for it per key:
// fmt boxes its argument and formats through a pooled printer, this is one
// allocation, the result.
func KeyName(k uint64) string {
	var digits [20]byte // len(strconv.Itoa(math.MaxUint64)) == 20
	d := strconv.AppendUint(digits[:0], k, 10)
	var buf [len("key") + len(digits)]byte
	b := append(buf[:0], "key"...)
	for i := len(d); i < 8; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}
