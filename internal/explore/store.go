package explore

// Store is the sequential visited-state store: it interns canonical state
// encodings, assigning dense ids and recording, for each state, the id of
// its BFS parent and the step taken from it, so a shortest trace to any
// stored state can be rebuilt. The explorers run on the concurrent
// Sharded; Store remains for single-threaded reference explorers, such as
// the test oracles that parallel checkers are compared against.
//
// It is an open-addressing hash table over keys interned in an
// append-only byte arena (see keyTable): steady-state insertion allocates
// nothing per state (arena blocks, the slot table and the per-id slices
// all grow geometrically). Per state it keeps the key behind a length
// prefix, a 4-byte key ref, 8-byte slots at a load of 3/8 to 3/4, a 4-byte
// parent and a 12-byte step. Interned keys never move, so KeyBytes can
// hand out stable views into the arena.
type Store struct {
	keys keyTable // probed by the low 32 bits of the first Hash128 lane

	parent []int32
	step   []Step
}

// storeMinTable is the initial slot-table size (a power of two).
const storeMinTable = 1 << 10

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	s.keys.init(storeMinTable)
	return s
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
// key is only copied (into the arena) when the state is new, so callers
// may reuse the backing buffer between calls.
func (s *Store) AddBytes(key []byte, parent int32, step Step) (int32, bool) {
	id, isNew := s.keys.insert(key, uint32(Hash128(key)[0]))
	if isNew {
		s.parent = append(grown(s.parent), parent)
		s.step = append(grown(s.step), step)
	}
	return id, isNew
}

// KeyBytes returns the interned encoding of state id. The result aliases
// the arena: it stays valid across later Adds and must not be mutated.
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
