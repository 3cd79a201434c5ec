package explore

// Store interns canonical state encodings, assigning dense ids and
// recording, for each state, the id of its BFS parent and the step taken
// from it, so a shortest trace to any stored state can be rebuilt.
//
// A store is either exact (keyed by the full encoding) or hash-compacted
// (keyed by a 128-bit Hash128 digest — Spin's hashcompact mode). Hash
// compaction cuts memory roughly 4× on large runs; a hash collision could
// in principle prune a state (probability < n²·2⁻¹²⁸ for n states —
// negligible, but the exact mode is the default and is used by all
// correctness tests).
//
// The exact mode is an open-addressing hash table over keys interned in an
// append-only byte arena: steady-state insertion allocates nothing per
// state (arena blocks, the slot table and the per-id slices all grow
// geometrically), where the previous map[string] representation paid a key
// copy plus bucket churn per state. Interned keys never move, so KeyBytes
// can hand out stable views into the arena — the basis of the exact-mode
// id-only frontier in core.
type Store struct {
	hashed map[[2]uint64]int32 // hash-compact mode; nil in exact mode
	keys   keyTable            // exact mode, probed by the first Hash128 lane

	parent []int32
	step   []Step
	// sleep holds per-state thread masks for sleep-set exploration
	// (AddBytesSleep); grown lazily, absent entries read as 0 ("no thread
	// asleep", the conservative bottom that never suppresses an edge).
	sleep []uint64
}

// storeMinTable is the initial slot-table size (a power of two).
const storeMinTable = 1 << 10

// NewStore returns an empty exact store.
func NewStore() *Store {
	s := &Store{}
	s.keys.init(storeMinTable)
	return s
}

// NewHashCompactStore returns an empty hash-compacted store.
func NewHashCompactStore() *Store {
	return &Store{hashed: make(map[[2]uint64]int32)}
}

// Root interns the initial state (parent -1).
func (s *Store) Root(key string) int32 {
	id, _ := s.Add(key, -1, Step{})
	return id
}

// Add interns a state encoding. It returns the state's id and whether the
// state was new. Parent and step are recorded only for new states (BFS
// guarantees the first visit is via a shortest path).
func (s *Store) Add(key string, parent int32, step Step) (int32, bool) {
	return s.AddBytes([]byte(key), parent, step)
}

// AddBytes is Add for a byte-slice key (the encoders' native type). The
// key is only copied (into the arena) when the state is new and the store
// is exact, so callers may reuse the backing buffer between calls.
func (s *Store) AddBytes(key []byte, parent int32, step Step) (int32, bool) {
	id, isNew, _ := s.addBytes(key, parent, step, 0, false)
	return id, isNew
}

// AddBytesSleep is AddBytes for sleep-set exploration: sleep is the thread
// mask the arriving edge justifies putting to sleep at the target state. A
// new state stores the mask verbatim; a revisit intersects the stored mask
// with the incoming one (the standard fixpoint discipline for sleep sets
// on non-tree state graphs). shrunk reports that the stored mask strictly
// decreased — the caller must then re-expand the state so transitions no
// longer justified as redundant get explored.
func (s *Store) AddBytesSleep(key []byte, parent int32, step Step, sleep uint64) (id int32, isNew, shrunk bool) {
	return s.addBytes(key, parent, step, sleep, true)
}

func (s *Store) addBytes(key []byte, parent int32, step Step, sleep uint64, useSleep bool) (int32, bool, bool) {
	h := Hash128(key)
	if s.hashed != nil {
		if id, ok := s.hashed[h]; ok {
			return id, false, s.mergeSleep(id, sleep, useSleep)
		}
		id := s.push(parent, step)
		s.setSleep(id, sleep, useSleep)
		s.hashed[h] = id
		return id, true, false
	}
	id, isNew := s.keys.insert(key, h[0])
	if !isNew {
		return id, false, s.mergeSleep(id, sleep, useSleep)
	}
	s.push(parent, step)
	s.setSleep(id, sleep, useSleep)
	return id, true, false
}

// ensureSleep grows the sleep slice to cover ids < n with zero masks.
func (s *Store) ensureSleep(n int) {
	for len(s.sleep) < n {
		s.sleep = append(grown(s.sleep), 0)
	}
}

func (s *Store) setSleep(id int32, sleep uint64, useSleep bool) {
	if !useSleep {
		return
	}
	s.ensureSleep(int(id) + 1)
	s.sleep[id] = sleep
}

func (s *Store) mergeSleep(id int32, sleep uint64, useSleep bool) bool {
	if !useSleep {
		return false
	}
	s.ensureSleep(int(id) + 1)
	old := s.sleep[id]
	if ns := old & sleep; ns != old {
		s.sleep[id] = ns
		return true
	}
	return false
}

// Sleep returns the current sleep mask of state id (0 if never set).
func (s *Store) Sleep(id int32) uint64 {
	if int(id) < len(s.sleep) {
		return s.sleep[id]
	}
	return 0
}

func (s *Store) push(parent int32, step Step) int32 {
	id := int32(len(s.parent))
	s.parent = append(grown(s.parent), parent)
	s.step = append(grown(s.step), step)
	return id
}

// KeyBytes returns the interned encoding of state id. Exact mode only
// (hash-compacted stores keep no keys). The result aliases the arena: it
// stays valid across later Adds and must not be mutated. This is what lets
// the exact-mode frontier carry bare ids and re-materialize the encoding
// on expansion instead of keeping a copy per queued state.
func (s *Store) KeyBytes(id int32) []byte { return s.keys.key(id) }

// Len returns the number of stored states.
func (s *Store) Len() int { return len(s.parent) }

// Trace reconstructs the steps from the root to state id.
func (s *Store) Trace(id int32) []Step {
	var rev []Step
	for id >= 0 && s.parent[id] >= 0 {
		rev = append(rev, s.step[id])
		id = s.parent[id]
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
