package explore

import (
	"sync"
	"sync/atomic"
)

// Set is a concurrent set of byte keys: Sharded's exact mode without the
// trace links, with ids packed the same way. The state-robustness
// checkers keep in it the visited set of their SC exploration, which
// needs no traces, and their program-state projection sets — the
// SC-reachable set, filled by one parallel exploration and probed by the
// next, and the weak set beside it.
type Set struct {
	count  atomic.Int64
	shards [numShards]setShard
}

type setShard struct {
	mu   sync.Mutex
	keys keyTable
}

// NewSet returns an empty set.
func NewSet() *Set {
	s := &Set{}
	sl := newSlab()
	for i := range s.shards {
		sl.carve(&s.shards[i].keys, i)
	}
	return s
}

// Add inserts key, returning its id and whether it was new. The key is
// copied only when new, so callers may reuse the backing buffer.
func (s *Set) Add(key []byte) (int64, bool) {
	h := Hash128(key)
	si := h[0] & shardMask
	sh := &s.shards[si]
	sh.mu.Lock()
	local, isNew := sh.keys.insert(key, h[1])
	sh.mu.Unlock()
	if isNew {
		s.count.Add(1)
	}
	return int64(local)<<shardBits | int64(si), isNew
}

// Has reports whether key is in the set.
func (s *Set) Has(key []byte) bool {
	h := Hash128(key)
	sh := &s.shards[h[0]&shardMask]
	sh.mu.Lock()
	ok := sh.keys.has(key, h[1])
	sh.mu.Unlock()
	return ok
}

// Key returns the key with the given id without locking, aliasing the
// set's storage. Like Sharded.Key it is for RunLevels expansions, during
// which no other goroutine writes s.
func (s *Set) Key(id int64) []byte {
	return s.shards[id&shardMask].keys.key(int32(id >> shardBits))
}

// commit interns a level's entries for shard si (see RunLevels).
func (s *Set) commit(si int, bks []*bucket, on func(int64, uint8, []byte)) {
	sh := &s.shards[si]
	sh.mu.Lock()
	added := 0
	for _, bk := range bks {
		for i := range bk.ents {
			e := &bk.ents[i]
			key := bk.key(e)
			if local, isNew := sh.keys.insert(key, e.h); isNew {
				added++
				on(int64(local)<<shardBits|int64(si), e.tag, key)
			}
		}
	}
	sh.mu.Unlock()
	s.count.Add(int64(added))
}

func (s *Set) endLevel() {}

// Len returns the number of keys.
func (s *Set) Len() int { return int(s.count.Load()) }

// Range calls f on every key, in no particular order. It must not run
// concurrently with Add (it reads the shards unlocked, so f may call Has).
// The key aliases the set's storage and must not be retained or mutated.
func (s *Set) Range(f func(key []byte)) {
	for i := range s.shards {
		t := &s.shards[i].keys
		for id := range t.refs {
			f(t.key(int32(id)))
		}
	}
}
