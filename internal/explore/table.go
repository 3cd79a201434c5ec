package explore

import "bytes"

// keyTable is the exact-mode core shared by Store, Sharded's shards and
// Set's shards: a linear-probing table of (digest, index+1) slots over
// keys interned in an append-only arena, assigning dense indexes in
// insertion order. The caller supplies a 64-bit probe digest (one Hash128
// lane) and does any locking, and sets the table up with init or carve.
type keyTable struct {
	arena arena
	refs  []keyRef
	table []slot
	mask  uint64
}

// slot is one open-addressing table entry: the key's 64-bit probe digest
// and index+1, with 0 marking an empty slot.
type slot struct {
	h  uint64
	id int32
}

// shardTable is a shard's initial slot-table size (a power of two), and
// shardKeys the number of keys it holds before its first grow.
const (
	shardTable = 1 << 4
	shardKeys  = shardTable * 3 / 4
)

// init gives t an empty slot table of the given power-of-two size.
func (t *keyTable) init(size int) {
	t.table = make([]slot, size)
	t.mask = uint64(size - 1)
}

// slab is the initial storage of the 64 tables of a sharded store, carved
// into per-shard pieces by capped slices: setting up a store then costs a
// handful of allocations rather than several per shard — the bulk of a
// litmus-sized verdict's store cost, since such a run touches every shard
// with only a few states each. A shard that outgrows a piece reallocates
// it as usual.
type slab struct {
	table  []slot
	refs   []keyRef
	blocks [][]byte
	arena  []byte
}

func newSlab() *slab {
	return &slab{
		table:  make([]slot, numShards*shardTable),
		refs:   make([]keyRef, numShards*shardKeys),
		blocks: make([][]byte, numShards),
		arena:  make([]byte, numShards*arenaMinBlock),
	}
}

// carve sets t up with shard i's pieces of the slab.
func (sl *slab) carve(t *keyTable, i int) {
	t.table = sl.table[i*shardTable : (i+1)*shardTable : (i+1)*shardTable]
	t.mask = shardTable - 1
	t.refs = sl.refs[i*shardKeys : i*shardKeys : (i+1)*shardKeys]
	sl.blocks[i] = sl.arena[i*arenaMinBlock : i*arenaMinBlock : (i+1)*arenaMinBlock]
	t.arena.blocks = sl.blocks[i : i+1 : i+1]
}

// insert interns key under probe digest h, returning its index and
// whether it was new. The key is copied into the arena only when new.
func (t *keyTable) insert(key []byte, h uint64) (int32, bool) {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		sl := &t.table[i]
		if sl.id == 0 {
			t.refs = append(grown(t.refs), t.arena.intern(key))
			id := int32(len(t.refs))
			sl.h, sl.id = h, id
			if uint64(id)*4 > (t.mask+1)*3 {
				t.grow()
			}
			return id - 1, true
		}
		if sl.h == h && bytes.Equal(t.arena.bytes(t.refs[sl.id-1]), key) {
			return sl.id - 1, false
		}
	}
}

// has reports whether key (with probe digest h) is interned.
func (t *keyTable) has(key []byte, h uint64) bool {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		sl := &t.table[i]
		if sl.id == 0 {
			return false
		}
		if sl.h == h && bytes.Equal(t.arena.bytes(t.refs[sl.id-1]), key) {
			return true
		}
	}
}

// key returns the interned key at index id; it aliases the arena.
func (t *keyTable) key(id int32) []byte { return t.arena.bytes(t.refs[id]) }

// grow doubles the slot table, reinserting by the cached digests (all keys
// are distinct, so no byte comparisons are needed).
func (t *keyTable) grow() {
	old := t.table
	t.table = make([]slot, len(old)*2)
	t.mask = uint64(len(t.table) - 1)
	for _, sl := range old {
		if sl.id == 0 {
			continue
		}
		i := sl.h & t.mask
		for t.table[i].id != 0 {
			i = (i + 1) & t.mask
		}
		t.table[i] = sl
	}
}
