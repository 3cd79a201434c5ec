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
// map) plus per-state parent/step trace links. It is the concurrent
// counterpart of Store, used by the parallel explorers; ids are int64
// (packed shard + local index) rather than Store's dense int32s. Like
// Store's exact mode, steady-state interning performs no per-state heap
// allocation: keys go into per-shard arenas and every table grows
// geometrically.
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
	// sleep holds per-state thread masks for sleep-set exploration
	// (AddSleep), indexed by local id; absent entries read as 0.
	sleep []uint64
}

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
	id, isNew, _ := s.add(key, parent, step, 0, false)
	return id, isNew
}

// AddSleep is Add for sleep-set exploration, with the same contract as
// Store.AddBytesSleep: a new state stores the incoming thread mask, a
// revisit intersects it into the stored mask, and shrunk=true tells the
// caller to re-expand the state. The mask update happens under the shard
// lock, so concurrent contributions never lose intersections.
func (s *Sharded) AddSleep(key []byte, parent int64, step Step, sleep uint64) (id int64, isNew, shrunk bool) {
	return s.add(key, parent, step, sleep, true)
}

func (s *Sharded) add(key []byte, parent int64, step Step, sleep uint64, useSleep bool) (int64, bool, bool) {
	h := Hash128(key)
	si := h[0] & shardMask
	sh := &s.shards[si]
	sh.mu.Lock()
	if s.hashCompact {
		if local, ok := sh.hashed[h]; ok {
			shrunk := sh.mergeSleep(local, sleep, useSleep)
			sh.mu.Unlock()
			return int64(local)<<shardBits | int64(si), false, shrunk
		}
		if sh.hashed == nil {
			sh.hashed = make(map[[2]uint64]int32)
		}
		sh.hashed[h] = int32(len(sh.parent))
	} else if local, isNew := sh.keys.insert(key, h[1]); !isNew {
		// The second hash lane drives the in-shard probe so that the bits
		// consumed by shard selection don't degrade the table's spread.
		shrunk := sh.mergeSleep(local, sleep, useSleep)
		sh.mu.Unlock()
		return int64(local)<<shardBits | int64(si), false, shrunk
	}
	local := int64(len(sh.parent))
	if useSleep {
		sh.ensureSleep(int(local) + 1)
		sh.sleep[local] = sleep
	}
	sh.parent = append(grown(sh.parent), parent)
	sh.step = append(grown(sh.step), step)
	sh.mu.Unlock()
	s.count.Add(1)
	return local<<shardBits | int64(si), true, false
}

func (sh *shard) ensureSleep(n int) {
	for len(sh.sleep) < n {
		sh.sleep = append(grown(sh.sleep), 0)
	}
}

func (sh *shard) mergeSleep(local int32, sleep uint64, useSleep bool) bool {
	if !useSleep {
		return false
	}
	sh.ensureSleep(int(local) + 1)
	old := sh.sleep[local]
	if ns := old & sleep; ns != old {
		sh.sleep[local] = ns
		return true
	}
	return false
}

// Sleep returns the current sleep mask of state id (0 if never set).
func (s *Sharded) Sleep(id int64) uint64 {
	sh := &s.shards[id&shardMask]
	local := id >> shardBits
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if int(local) < len(sh.sleep) {
		return sh.sleep[local]
	}
	return 0
}

// AppendKey appends the interned encoding of state id to dst and returns
// the extended slice. Exact mode only (hash-compacted stores keep no
// keys). Unlike Store.KeyBytes it copies — under the shard lock — rather
// than aliasing the arena, since another worker may grow the shard's block
// list concurrently; the caller supplies a reusable buffer, so the copy
// still allocates nothing in steady state. This re-materialization is what
// lets the parallel exact-mode frontier carry bare ids.
func (s *Sharded) AppendKey(dst []byte, id int64) []byte {
	sh := &s.shards[id&shardMask]
	sh.mu.Lock()
	dst = append(dst, sh.keys.key(int32(id>>shardBits))...)
	sh.mu.Unlock()
	return dst
}

// Len returns the number of stored states. It reads an atomic counter, so
// it is cheap enough for per-expansion bound checks; during a run it may
// trail in-flight Adds by a few states.
func (s *Sharded) Len() int { return int(s.count.Load()) }

// Trace reconstructs the steps from the root to state id by following the
// recorded parent arcs. Every parent link points at an earlier-interned
// state, so the walk terminates at the root; the result is a valid run,
// though not necessarily a shortest one (RunParallel does not preserve BFS
// level order; under RunLevels every parent is one level up, so it is).
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
