package explore

// An arena is an append-only byte store for interned state encodings.
// Bytes are packed into blocks; once written they never move, so a keyRef
// stays valid for the arena's lifetime and readers may hold views into it
// across later interns. Compared with one string per state, the arena costs
// one allocation per block of key data instead of one per state, and frees
// the GC from scanning a header per key (blocks are pointer-free byte
// slices). Block capacity grows geometrically from arenaMinBlock up to
// arenaMaxBlock, so a barely-used arena stays tiny — 64 of them back a
// Sharded store, and litmus-sized runs touch every shard with only a
// handful of states each — while large runs still amortize to one
// allocation per 64 KiB.
const (
	arenaMinBlock = 1 << 8
	arenaMaxBlock = 64 << 10
)

// keyRef locates one interned key: block index, offset, length.
type keyRef struct {
	blk, off, n uint32
}

type arena struct {
	blocks [][]byte
}

// intern appends b to the arena and returns its ref. A key never straddles
// blocks: when the current block lacks room a new one is started (wasting
// the tail), and a key larger than the block size gets a dedicated block.
// A new block reuses the next one a reset left, if b fits.
func (a *arena) intern(b []byte) keyRef {
	last := len(a.blocks) - 1
	if last < 0 || len(a.blocks[last])+len(b) > cap(a.blocks[last]) {
		if last+1 < cap(a.blocks) && cap(a.blocks[:last+2][last+1]) >= len(b) {
			a.blocks = a.blocks[:last+2]
		} else {
			size := arenaMinBlock
			if last >= 0 {
				size = 2 * cap(a.blocks[last])
				if size > arenaMaxBlock {
					size = arenaMaxBlock
				}
			}
			if len(b) > size {
				size = len(b)
			}
			a.blocks = append(a.blocks[:last+1], make([]byte, 0, size))
		}
		last++
	}
	blk := a.blocks[last]
	off := len(blk)
	a.blocks[last] = append(blk, b...)
	return keyRef{uint32(last), uint32(off), uint32(len(b))}
}

// bytes returns the interned key at r. The result aliases arena storage:
// valid indefinitely, never to be mutated.
func (a *arena) bytes(r keyRef) []byte {
	return a.blocks[r.blk][r.off : uint64(r.off)+uint64(r.n) : uint64(r.off)+uint64(r.n)]
}

// reset empties the arena for reuse: its keys are dropped, and its blocks
// are filled again by later interns.
func (a *arena) reset() {
	for i := range a.blocks {
		a.blocks[i] = a.blocks[i][:0]
	}
	a.blocks = a.blocks[:0]
}
