package workload

import (
	"math/rand"
	"slices"
)

// TxnKind is a Retwis transaction type.
type TxnKind int

// The four Retwis transaction types and their mix from §6 of the paper:
// 5% add-user, 15% follow/unfollow, 30% post-tweet, 50% load-timeline.
// The first three are read-write transactions; load-timeline is read-only.
const (
	AddUser TxnKind = iota
	Follow
	PostTweet
	LoadTimeline
)

func (k TxnKind) String() string {
	switch k {
	case AddUser:
		return "add-user"
	case Follow:
		return "follow"
	case PostTweet:
		return "post-tweet"
	case LoadTimeline:
		return "load-timeline"
	}
	return "unknown"
}

// ReadOnly reports whether transactions of this kind have an empty write set.
func (k TxnKind) ReadOnly() bool { return k == LoadTimeline }

// Txn is one generated transaction: the keys it reads and the keys it
// writes. Write keys are also read (Spanner RW transactions acquire read
// locks on keys they read during execution; our Retwis shapes follow the
// TAPIR experimental framework the paper built on).
type Txn struct {
	Kind      TxnKind
	ReadKeys  []string // keys read but not written
	WriteKeys []string // keys written
}

// IsReadOnly reports whether the transaction writes nothing.
func (t *Txn) IsReadOnly() bool { return len(t.WriteKeys) == 0 }

// Retwis generates the paper's Retwis workload.
type Retwis struct {
	keys KeyChooser
}

// NewRetwis builds a Retwis generator over the given key chooser (the paper
// uses Zipfian with skew 0.5–0.9 over ten million keys).
func NewRetwis(keys KeyChooser) *Retwis {
	return &Retwis{keys: keys}
}

// distinctKeys draws n distinct key names (clamped to the key-space size,
// which only matters for toy keyspaces in tests).
func (r *Retwis) distinctKeys(rng *rand.Rand, n int) []string {
	if max := r.keys.N(); uint64(n) > max {
		n = int(max)
	}
	out := make([]string, 0, n)
	// A transaction has at most ten keys: scanning the ranks already drawn
	// beats building a set of them.
	var drawn [16]uint64
	ranks := drawn[:0]
	for len(out) < n {
		k := r.keys.Next(rng)
		if slices.Contains(ranks, k) {
			continue
		}
		ranks = append(ranks, k)
		out = append(out, KeyName(k))
	}
	return out
}

// Next generates one transaction using rng. Transaction shapes follow the
// TAPIR framework's Retwis client:
//
//	add-user:      1 read,  3 writes
//	follow:        2 reads, 2 writes
//	post-tweet:    3 reads, 5 writes
//	load-timeline: 1–10 reads, read-only
func (r *Retwis) Next(rng *rand.Rand) Txn {
	p := rng.Float64()
	switch {
	case p < 0.05:
		ks := r.distinctKeys(rng, 3)
		return Txn{Kind: AddUser, ReadKeys: ks[:1], WriteKeys: ks}
	case p < 0.20:
		ks := r.distinctKeys(rng, 2)
		return Txn{Kind: Follow, ReadKeys: ks, WriteKeys: ks}
	case p < 0.50:
		ks := r.distinctKeys(rng, 5)
		return Txn{Kind: PostTweet, ReadKeys: ks[:3], WriteKeys: ks}
	default:
		n := 1 + rng.Intn(10)
		return Txn{Kind: LoadTimeline, ReadKeys: r.distinctKeys(rng, n)}
	}
}

// Op is a single-object (non-transactional) operation for the Gryff/YCSB
// workload.
type Op struct {
	Key     string
	IsWrite bool
}

// YCSB generates the read/write mix of §7 with an explicit conflict-rate
// knob: with probability ConflictFrac an operation targets the single hot
// key (key 0), producing cross-client conflicts; otherwise it draws
// uniformly from the rest of the key space. WriteRatio is the fraction of
// operations that are writes.
type YCSB struct {
	N            uint64
	WriteRatio   float64
	ConflictFrac float64
}

// NewYCSB builds a YCSB generator over n keys.
func NewYCSB(n uint64, writeRatio, conflictFrac float64) *YCSB {
	if n < 2 {
		panic("workload: YCSB needs at least 2 keys")
	}
	return &YCSB{N: n, WriteRatio: writeRatio, ConflictFrac: conflictFrac}
}

// Next generates one operation.
func (y *YCSB) Next(rng *rand.Rand) Op {
	var k uint64
	if rng.Float64() < y.ConflictFrac {
		k = 0
	} else {
		k = 1 + uint64(rng.Int63n(int64(y.N-1)))
	}
	return Op{Key: KeyName(k), IsWrite: rng.Float64() < y.WriteRatio}
}
