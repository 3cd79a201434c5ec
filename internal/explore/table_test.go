package explore

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// TestStoreLayoutSizes pins the per-key bookkeeping of the store core: an
// 8-byte slot, a 4-byte keyRef and a 32-byte batch entry.
func TestStoreLayoutSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"slot", unsafe.Sizeof(slot{}), 8},
		{"keyRef", unsafe.Sizeof(keyRef(0)), 4},
		{"entry", unsafe.Sizeof(entry{}), 32},
	} {
		if c.got != c.want {
			t.Errorf("sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// arenaKey is a key of length n whose bytes depend on seed.
func arenaKey(n, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + seed)
	}
	return b
}

// TestStoreArenaRoundTrip interns keys at both edges of each uvarint
// length-prefix width, and a key larger than a block between small ones,
// and reads every one back. A key's record is its prefix and its bytes.
func TestStoreArenaRoundTrip(t *testing.T) {
	var a arena
	type rec struct {
		key []byte
		ref keyRef
	}
	var recs []rec
	add := func(n, width int) {
		key := arenaKey(n, len(recs))
		ref := a.intern(key)
		blk := a.blocks[ref>>refOffBits]
		if got := len(blk) - int(ref&(1<<refOffBits-1)); got != width+n {
			t.Errorf("key of %d bytes takes %d arena bytes, want %d", n, got, width+n)
		}
		recs = append(recs, rec{key, ref})
	}
	for _, n := range []int{0, 127} {
		add(n, 1)
	}
	for _, n := range []int{128, 16383} {
		add(n, 2)
	}
	add(16384, 3)
	add(5, 1)
	add(arenaMaxBlock+1000, 3) // a dedicated block, at offset 0
	add(5, 1)
	add(0, 1)
	for i, r := range recs {
		if !bytes.Equal(a.bytes(r.ref), r.key) {
			t.Errorf("key %d (%d bytes) did not round-trip", i, len(r.key))
		}
	}
	if big := recs[len(recs)-3].ref; big&(1<<refOffBits-1) != 0 {
		t.Errorf("oversized key at offset %d, want 0", big&(1<<refOffBits-1))
	}
}

// TestStoreArenaResetReuse fills an arena whose first block, left by a
// reset, is larger than arenaMaxBlock: small keys may fill it only up to
// the offsets a keyRef can hold, and then go on in new blocks.
func TestStoreArenaResetReuse(t *testing.T) {
	var a arena
	a.intern(arenaKey(3*arenaMaxBlock, 0))
	a.reset()
	var refs []keyRef
	for i := 0; i < 3*arenaMaxBlock/40; i++ {
		refs = append(refs, a.intern(arenaKey(31, i)))
	}
	for i, r := range refs {
		if !bytes.Equal(a.bytes(r), arenaKey(31, i)) {
			t.Fatalf("key %d (ref %#x) did not round-trip", i, uint32(r))
		}
	}
	if len(a.blocks) < 2 {
		t.Errorf("%d bytes of keys fit in %d block, want new blocks past offset %d", 32*len(refs), len(a.blocks), arenaMaxBlock)
	}
}

// TestStoreArenaFull checks that an arena uses its last addressable block
// and panics, rather than wrap a keyRef, when it would need one more.
func TestStoreArenaFull(t *testing.T) {
	a := arena{blocks: make([][]byte, refMaxBlk-1)}
	r := a.intern([]byte("last"))
	if r>>refOffBits != refMaxBlk-1 || string(a.bytes(r)) != "last" {
		t.Fatalf("ref %#x into block %d, want block %d", uint32(r), r>>refOffBits, refMaxBlk-1)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "arena full") {
			t.Errorf("intern into a full arena: recovered %q, want an arena-full panic", msg)
		}
	}()
	a.intern([]byte("one too many"))
}

// TestStoreKeyTableSameDigest gives 1000 distinct keys one probe digest:
// every insert walks the whole cluster, every digest matches, and only
// the byte compares tell the keys apart.
func TestStoreKeyTableSameDigest(t *testing.T) {
	var kt keyTable
	kt.init(16)
	const n, h = 1000, 0xdeadbeef
	key := func(i int) []byte { return []byte(fmt.Sprintf("same-digest-%d", i)) }
	seen := map[int32]bool{}
	for i := 0; i < n; i++ {
		id, isNew := kt.insert(key(i), h)
		if !isNew || seen[id] {
			t.Fatalf("key %d: id %d, new %v; want a fresh id", i, id, isNew)
		}
		seen[id] = true
	}
	for i := 0; i < n; i++ {
		if id, isNew := kt.insert(key(i), h); isNew || id != int32(i) || !kt.has(key(i), h) {
			t.Fatalf("key %d: re-insert gave (%d, %v), want (%d, false)", i, id, isNew, i)
		}
		if !bytes.Equal(kt.key(int32(i)), key(i)) {
			t.Fatalf("key(%d) = %q, want %q", i, kt.key(int32(i)), key(i))
		}
	}
	if kt.has([]byte("same-digest-absent"), h) {
		t.Error("has reports an absent key with the shared digest")
	}
}

// TestStoreBatchKeys batches keys of mixed lengths, empty ones included,
// into one shard's bucket: each entry's key runs to where the next one's
// starts, and the last one's to the end of the bucket's keys.
func TestStoreBatchKeys(t *testing.T) {
	var s batchSet
	keys := [][]byte{{}, []byte("abc"), {}, arenaKey(300, 1), {}}
	for i, k := range keys {
		s.add(k, int64(i), Step{}, uint8(i))
	}
	got := 0
	for si := range s.bks {
		bk := &s.bks[si]
		for i := range bk.ents {
			e := &bk.ents[i]
			if want := keys[e.parent]; !bytes.Equal(bk.key(i), want) || e.tag != uint8(e.parent) {
				t.Errorf("entry %d of shard %d: key of %d bytes, want %d", i, si, len(bk.key(i)), len(want))
			}
			got++
		}
	}
	if got != len(keys) || s.n != len(keys) {
		t.Errorf("%d entries (n=%d), want %d", got, s.n, len(keys))
	}
}
