// Package mvstore is the multi-versioned storage engine underneath each
// Spanner shard: every committed write creates a new version of a key at
// its transaction's commit timestamp, and reads retrieve the latest version
// at or below a snapshot timestamp.
package mvstore

import (
	"sort"
	"strings"

	"rsskv/internal/truetime"
)

// Version is one committed value of a key.
type Version struct {
	TS    truetime.Timestamp
	Value string
}

// Store maps keys to their version chains. The zero value is not usable;
// call New.
//
// The store owns its keys: Write is handed strings that are views into a
// decoded frame (see package wire), and a key the store kept as given would
// keep that whole frame alive. A map assignment re-points even an existing
// string key at the string it was assigned through, so owning the keys
// takes more than cloning on insert: the map is written once per key, with
// a clone, and holds only the chain's position; every later write goes
// through chains and never touches the map's keys again.
//
// The store is bounded by its floor, a timestamp its owner raises with
// Advance once it knows that no read anyone will use executes below it. A
// read at or above the floor needs, of the versions at or below the floor,
// only the newest; Write drops the others from the chain it touches. So
// after any Write a chain holds at most one version at or below the floor,
// nothing sweeps, and a key nobody writes keeps what it had: at most one
// superseded version until its next write. ReadAt below the floor returns
// whatever is left, which may be the wrong version or none — keeping reads
// at or above the floor is the owner's side of the contract.
type Store struct {
	index  map[string]int // key (the store's own copy) -> position in chains
	chains [][]Version
	floor  truetime.Timestamp
	n      int // versions held, over all chains
}

// New returns an empty store.
func New() *Store {
	return &Store{index: make(map[string]int)}
}

// Advance raises the floor; a value at or below the current one is ignored,
// so the floor never regresses. Nothing is dropped here: each chain is
// trimmed by its next Write.
func (s *Store) Advance(floor truetime.Timestamp) {
	if floor > s.floor {
		s.floor = floor
	}
}

// Len returns the number of versions held, over all keys.
func (s *Store) Len() int { return s.n }

// chain returns key's versions (nil if unwritten).
func (s *Store) chain(key string) []Version {
	if i, ok := s.index[key]; ok {
		return s.chains[i]
	}
	return nil
}

// Write installs value as the version of key at ts. Commit timestamps of
// writes to one key are unique (strict two-phase locking orders conflicting
// transactions), but arrival order may differ from timestamp order when a
// skipped transaction commits late, so Write inserts in timestamp order.
// The store keeps value as given and a copy of key.
//
// The chain is trimmed to the floor on the way: before the insert, so the
// slot a dropped version frees is the one the new version takes and a key
// that is rewritten stays in the array it has; and after an insert at or
// below the floor, which either supersedes its predecessors or is itself
// superseded on arrival.
func (s *Store) Write(key, value string, ts truetime.Timestamp) {
	c, ok := s.index[key]
	if !ok {
		c = len(s.chains)
		s.chains = append(s.chains, nil)
		s.index[strings.Clone(key)] = c
	}
	vs := s.trim(s.chains[c])
	i := sort.Search(len(vs), func(i int) bool { return vs[i].TS >= ts })
	if i < len(vs) && vs[i].TS == ts {
		vs[i].Value = value // idempotent re-apply
		s.chains[c] = vs
		return
	}
	vs = append(vs, Version{})
	copy(vs[i+1:], vs[i:])
	vs[i] = Version{TS: ts, Value: value}
	s.n++
	if ts <= s.floor {
		vs = s.trim(vs)
	}
	s.chains[c] = vs
}

// trim drops, in place, every version of one chain older than the newest
// one at or below the floor, and clears the slots they leave behind the
// chain's end so their values are released.
func (s *Store) trim(vs []Version) []Version {
	if len(vs) < 2 || vs[1].TS > s.floor {
		return vs // the only comparison most writes pay
	}
	cut := 1
	for cut+1 < len(vs) && vs[cut+1].TS <= s.floor {
		cut++
	}
	n := copy(vs, vs[cut:])
	clear(vs[n:])
	s.n -= cut
	return vs[:n]
}

// ReadAt returns the latest version of key with TS ≤ ts. The zero Version
// (TS 0, empty value) is returned for keys never written at or before ts —
// the paper's null.
func (s *Store) ReadAt(key string, ts truetime.Timestamp) Version {
	vs := s.chain(key)
	i := sort.Search(len(vs), func(i int) bool { return vs[i].TS > ts })
	if i == 0 {
		return Version{}
	}
	return vs[i-1]
}

// Latest returns the newest version of key (zero Version if unwritten).
func (s *Store) Latest(key string) Version {
	vs := s.chain(key)
	if len(vs) == 0 {
		return Version{}
	}
	return vs[len(vs)-1]
}

// MaxTS returns the largest commit timestamp of any version of key
// (0 if unwritten).
func (s *Store) MaxTS(key string) truetime.Timestamp { return s.Latest(key).TS }

// MaxTSAll returns the largest commit timestamp of any version of any
// key (0 on an empty store) — the floor a recovered shard's clock must
// clear so post-restart commits sort after everything a checkpoint
// restored.
func (s *Store) MaxTSAll() truetime.Timestamp {
	var max truetime.Timestamp
	for _, vs := range s.chains {
		if n := len(vs); n > 0 && vs[n-1].TS > max {
			max = vs[n-1].TS
		}
	}
	return max
}

// Versions returns the number of versions of key (testing).
func (s *Store) Versions(key string) int { return len(s.chain(key)) }

// Dump visits every version held of every key, Len calls in all, in
// timestamp order per key (key order unspecified) — the full-state walk
// behind replication catch-up snapshots and checkpoints: installing every
// version into a fresh store reproduces this store's reads at or above its
// floor, so replaying the log suffix after the snapshot's cut point
// re-derives everything later. The store must not be mutated during
// the walk (callers run it on the owning loop).
func (s *Store) Dump(fn func(key string, v Version)) {
	for k, c := range s.index {
		for _, v := range s.chains[c] {
			fn(k, v)
		}
	}
}
