package explore

import (
	"sync"
	"sync/atomic"
)

// Sharded state ids pack (local index, shard) into an int64:
// id = local<<shardBits | shard. 64 shards keep lock contention negligible
// for any plausible worker count while the id stays comfortably inside
// int64 for multi-billion-state runs.
const (
	shardBits = 6
	numShards = 1 << shardBits
	shardMask = numShards - 1
)

// Sharded is a concurrent visited-state store: the encoding's Hash128
// digest selects one of 64 independently-locked shards, each an exact
// open-addressing table over an append-only key arena (or a hash-compacted
// map) plus per-state parent/step trace links. It is the store of the
// parallel explorers; ids are int64s (packed shard + local index). Like
// Store, the exact mode interns with no per-state heap allocation in
// steady state: keys go into per-shard arenas and every table grows
// geometrically.
//
// A hash-compacted store keeps the 128-bit digests of its states, and the
// keys only of the states RunLevels has yet to expand: those of the level
// being expanded and of the one being committed. Its searches therefore
// take roots on their first level only.
type Sharded struct {
	hashCompact bool
	count       atomic.Int64
	shards      [numShards]shard
}

type shard struct {
	mu     sync.Mutex
	hashed map[[2]uint64]int32 // hash-compact mode; nil until first use
	keys   keyTable            // exact mode, probed by the second Hash128 lane
	parent []int64
	step   []Step
	// fresh is the first local id interned by the commits of the current
	// RunLevels level: the ids below it are expanded by the end of the
	// level, the ones above are the next level's.
	fresh int32
	// sleep holds the per-state masks of the sleep lane (Batch.AddSleep),
	// indexed by local id; absent entries read as 0. shrunk holds the
	// masks of states below fresh that this level's commits shrank, until
	// the level ends.
	sleep  []uint64
	shrunk map[int32]uint64
	// Hash-compact mode: the keys of the states below fresh (local ids
	// from lo) and of those from fresh on.
	lo        int32
	cur, next levelKeys
}

// levelKeys holds the keys of one level's states of a hash-compacted
// shard, in local-id order.
type levelKeys struct {
	arena arena
	refs  []keyRef
}

// Revisit flags a frontier id whose state RunLevels expands again because
// a sleep-lane commit strictly shrank the state's mask (Batch.AddSleep).
// Store ids stay below 1<<37.
const Revisit = int64(1) << 61

// NewSharded returns an empty sharded store, exact or hash-compacted. The
// exact shards start out in one slab (see slab), the hash-compacted ones
// allocate their maps on first use, so setting up a store for a run that
// touches few states is cheap.
func NewSharded(hashCompact bool) *Sharded {
	s := &Sharded{hashCompact: hashCompact}
	if hashCompact {
		return s
	}
	sl := newSlab()
	parent := make([]int64, numShards*shardKeys)
	step := make([]Step, numShards*shardKeys)
	for i := range s.shards {
		sh := &s.shards[i]
		sl.carve(&sh.keys, i)
		sh.parent = parent[i*shardKeys : i*shardKeys : (i+1)*shardKeys]
		sh.step = step[i*shardKeys : i*shardKeys : (i+1)*shardKeys]
	}
	return s
}

// Add interns a state encoding, returning its id and whether it was new.
// Parent and step are recorded for new states only; in a concurrent
// exploration the recorded parent is whichever arc interned the state
// first — a valid (not necessarily shortest) path, since parents are
// always already-interned states. The key is copied (into the shard's
// arena) only when new, so callers may reuse the backing buffer.
func (s *Sharded) Add(key []byte, parent int64, step Step) (int64, bool) {
	h := Hash128(key)
	si := int(h[0] & shardMask)
	sh := &s.shards[si]
	sh.mu.Lock()
	local, isNew := sh.intern(s.hashCompact, key, h, parent, step)
	sh.mu.Unlock()
	if isNew {
		s.count.Add(1)
	}
	return int64(local)<<shardBits | int64(si), isNew
}

// intern adds key, with digest h, to the shard unless it is there, and
// returns its local id and whether it was new. A new state records its
// trace link and, in hash-compact mode, joins the next level's keys.
func (sh *shard) intern(hashCompact bool, key []byte, h [2]uint64, parent int64, step Step) (int32, bool) {
	if hashCompact {
		if local, ok := sh.hashed[h]; ok {
			return local, false
		}
		if sh.hashed == nil {
			sh.hashed = make(map[[2]uint64]int32)
		}
		sh.hashed[h] = int32(len(sh.parent))
		sh.next.refs = append(grown(sh.next.refs), sh.next.arena.intern(key))
	} else if local, isNew := sh.keys.insert(key, h[1]); !isNew {
		// The second hash lane drives the in-shard probe so that the bits
		// consumed by shard selection don't degrade the table's spread.
		return local, false
	}
	sh.parent = append(grown(sh.parent), parent)
	sh.step = append(grown(sh.step), step)
	return int32(len(sh.parent) - 1), true
}

// commit interns a level's entries for shard si (see RunLevels), with
// their sleep masks when the buckets carry the sleep lane.
func (s *Sharded) commit(si int, bks []*bucket, on func(int64, uint8, []byte)) {
	sh := &s.shards[si]
	sh.mu.Lock()
	added := 0
	for _, bk := range bks {
		lane := len(bk.sleep) != 0
		for i := range bk.ents {
			e := &bk.ents[i]
			key := bk.key(e)
			h := [2]uint64{0, e.h}
			if s.hashCompact {
				h = Hash128(key) // the entry keeps one lane only
			}
			local, isNew := sh.intern(s.hashCompact, key, h, e.parent, e.step)
			id := int64(local)<<shardBits | int64(si)
			switch {
			case isNew:
				if lane {
					sh.ensureSleep(int(local) + 1)
					sh.sleep[local] = bk.sleep[i]
				}
				added++
				on(id, e.tag, key)
			case lane && sh.meet(local, bk.sleep[i]):
				on(id|Revisit, e.tag, key)
			}
		}
	}
	sh.mu.Unlock()
	s.count.Add(int64(added))
}

func (sh *shard) ensureSleep(n int) {
	for len(sh.sleep) < n {
		sh.sleep = append(grown(sh.sleep), 0)
	}
}

// meet intersects mask m into the sleep mask of the already interned
// state local. A state of the next level takes it at once. A state below
// fresh keeps its mask until the level ends, and meet reports whether
// this is the level's first strict shrink of it, which calls for a
// revisit.
func (sh *shard) meet(local int32, m uint64) bool {
	sh.ensureSleep(int(local) + 1)
	if local >= sh.fresh {
		sh.sleep[local] &= m
		return false
	}
	if old, ok := sh.shrunk[local]; ok {
		sh.shrunk[local] = old & m
		return false
	}
	if old := sh.sleep[local]; old&m != old {
		if sh.shrunk == nil {
			sh.shrunk = make(map[int32]uint64)
		}
		sh.shrunk[local] = old & m
		return true
	}
	return false
}

// endLevel ends a RunLevels level: the shrunk sleep masks take effect,
// the level's new states become the ones to expand, and a hash-compacted
// store drops the keys of the states just expanded.
func (s *Sharded) endLevel() {
	for i := range s.shards {
		sh := &s.shards[i]
		if len(sh.shrunk) != 0 {
			for local, m := range sh.shrunk {
				sh.sleep[local] = m
			}
			clear(sh.shrunk)
		}
		if s.hashCompact {
			sh.cur.arena.reset()
			sh.cur.refs = sh.cur.refs[:0]
			sh.cur, sh.next = sh.next, sh.cur
			sh.lo = sh.fresh
		}
		sh.fresh = int32(len(sh.parent))
	}
}

// Sleep returns the sleep mask of state id (0 if never set). Like Key it
// reads without locking, for RunLevels expansions.
func (s *Sharded) Sleep(id int64) uint64 {
	sh := &s.shards[id&shardMask]
	if local := id >> shardBits; int(local) < len(sh.sleep) {
		return sh.sleep[local]
	}
	return 0
}

// Key returns the interned encoding of state id without locking; it
// aliases the store and must not be mutated. A hash-compacted store has
// the keys of the states RunLevels has yet to expand only. No other
// goroutine may write s meanwhile: it is for RunLevels expansions.
func (s *Sharded) Key(id int64) []byte {
	sh := &s.shards[id&shardMask]
	local := int32(id >> shardBits)
	switch {
	case !s.hashCompact:
		return sh.keys.key(local)
	case local >= sh.fresh:
		return sh.next.arena.bytes(sh.next.refs[local-sh.fresh])
	default:
		return sh.cur.arena.bytes(sh.cur.refs[local-sh.lo])
	}
}

// Len returns the number of stored states. It reads an atomic counter, so
// it is cheap enough for per-expansion bound checks; during a run it may
// trail in-flight Adds by a few states.
func (s *Sharded) Len() int { return int(s.count.Load()) }

// Trace reconstructs the steps from the root to state id by following the
// recorded parent arcs. Every parent link points at an earlier-interned
// state, so the walk terminates at the root; the result is a valid run.
// Under RunLevels the states new to a level's commit form the next level,
// so every parent is one level up (two for a Deferred entry) and the
// trace is a shortest one.
func (s *Sharded) Trace(id int64) []Step {
	var rev []Step
	for id >= 0 {
		sh := &s.shards[id&shardMask]
		local := id >> shardBits
		sh.mu.Lock()
		parent, step := sh.parent[local], sh.step[local]
		sh.mu.Unlock()
		if parent < 0 {
			break
		}
		rev = append(rev, step)
		id = parent
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
