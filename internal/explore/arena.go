package explore

import (
	"encoding/binary"
	"fmt"
)

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

// keyRef locates one interned key: its block index in the high 16 bits
// and its offset in the block in the low 16. Offsets fit because a key
// starts below arenaMaxBlock in its block: a regular block is no larger,
// and a key too big for one gets a block of its own, at offset 0. The
// key's length is stored in the arena, in front of the key (see intern).
// An arena holds at most 1<<16 blocks, 4 GiB of keys.
type keyRef uint32

const (
	refOffBits = 16
	refMaxBlk  = 1 << (32 - refOffBits)
)

type arena struct {
	blocks [][]byte
}

// intern appends b to the arena, prefixed by its length as a uvarint (one
// byte for keys under 128 bytes), and returns its ref. A key never
// straddles blocks: when the current block lacks room a new one is started
// (wasting the tail), and a key larger than the block size gets a
// dedicated block. A new block reuses the next one a reset left, if the
// key fits; such a block may be larger than arenaMaxBlock, and takes no
// key past that offset. intern panics rather than wrap a ref when the
// arena would need its 65,537th block.
func (a *arena) intern(b []byte) keyRef {
	var buf [binary.MaxVarintLen64]byte
	prefix := binary.AppendUvarint(buf[:0], uint64(len(b)))
	need := len(prefix) + len(b)
	last := len(a.blocks) - 1
	if last < 0 || len(a.blocks[last])+need > cap(a.blocks[last]) || len(a.blocks[last]) >= arenaMaxBlock {
		if last+1 >= refMaxBlk {
			panic(fmt.Sprintf("explore: key arena full: %d blocks of up to %d KiB in one table", refMaxBlk, arenaMaxBlock>>10))
		}
		if last+1 < cap(a.blocks) && cap(a.blocks[:last+2][last+1]) >= need {
			a.blocks = a.blocks[:last+2]
		} else {
			size := arenaMinBlock
			if last >= 0 {
				size = min(2*cap(a.blocks[last]), arenaMaxBlock)
			}
			size = max(size, need)
			a.blocks = append(a.blocks[:last+1], make([]byte, 0, size))
		}
		last++
	}
	blk := a.blocks[last]
	off := len(blk)
	a.blocks[last] = append(append(blk, prefix...), b...)
	return keyRef(last<<refOffBits | off)
}

// bytes returns the interned key at r. The result aliases arena storage:
// valid indefinitely, never to be mutated.
func (a *arena) bytes(r keyRef) []byte {
	rec := a.blocks[r>>refOffBits][r&(1<<refOffBits-1):]
	// The uvarint length prefix, decoded here rather than by
	// binary.Uvarint so that bytes inlines into the table's probes.
	n, w := 0, 0
	for c := byte(0x80); c >= 0x80; w++ {
		c = rec[w]
		n |= int(c&0x7f) << (7 * w)
	}
	return rec[w : w+n : w+n]
}

// size returns the capacity the arena holds: its blocks, those a reset
// left for reuse included, and their headers.
func (a *arena) size() int {
	n := 24 * cap(a.blocks)
	for _, b := range a.blocks[:cap(a.blocks)] {
		n += cap(b)
	}
	return n
}

// reset empties the arena for reuse: its keys are dropped, and its blocks
// are filled again by later interns.
func (a *arena) reset() {
	for i := range a.blocks {
		a.blocks[i] = a.blocks[i][:0]
	}
	a.blocks = a.blocks[:0]
}
