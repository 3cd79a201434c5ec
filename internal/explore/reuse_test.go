package explore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/lang"
)

func u64Key(k int) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(k)) }

// sleepSearch explores into s, on one worker, the graph over [0, n) in
// which state k steps to 2k+1, 2k+2 and k+1, on the sleep lane: a tree
// edge carries the full mask, and k's edge to k+1, which mostly reaches a
// state of k's own level, a mask without bit k%8, so that it shrinks the
// mask of a state already expanded. A positive limit is the commit's
// Limit. It reports whether the search completed, and how many of its
// expansions were revisits.
func sleepSearch(s *Sharded, n, limit int) (bool, int) {
	root, _ := s.Add(u64Key(0), -1, Step{})
	revisits := 0
	expand := func(_ int, id int64, b *Batch) bool {
		if id&Revisit != 0 {
			revisits++
		}
		id &^= Revisit
		k := int(binary.LittleEndian.Uint64(s.Key(id)))
		for i, succ := range []int{2*k + 1, 2*k + 2, k + 1} {
			mask := uint64(0xff)
			if i == 2 {
				mask &^= 1 << (k % 8)
			}
			if succ < n {
				b.AddSleep(u64Key(succ), id, Step{Tid: lang.Tid(i), Lab: lang.WriteLab(0, lang.Val(k%5))}, mask)
			}
		}
		return true
	}
	done := RunLevels(1, [][]int64{{root}}, expand, []Commit{{Into: s, Limit: limit}}, nil, RunOpts{})
	return done, revisits
}

// sameStore fails t unless got holds what want holds under the same ids:
// the same Len, and per id the same key, trace, sleep mask and parent.
func sameStore(t *testing.T, what string, got, want *Sharded) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len = %d, want %d", what, got.Len(), want.Len())
	}
	for si := range want.shards {
		g, w := &got.shards[si], &want.shards[si]
		if len(g.parent) != len(w.parent) {
			t.Fatalf("%s: shard %d holds %d states, want %d", what, si, len(g.parent), len(w.parent))
		}
		for local := range w.parent {
			id := int64(local)<<shardBits | int64(si)
			if !bytes.Equal(got.Key(id), want.Key(id)) || got.Sleep(id) != want.Sleep(id) || g.parent[local] != w.parent[local] ||
				fmt.Sprint(got.Trace(id)) != fmt.Sprint(want.Trace(id)) {
				t.Fatalf("%s: state %d differs: key %x sleep %#x parent %d, want key %x sleep %#x parent %d",
					what, id, got.Key(id), got.Sleep(id), g.parent[local], want.Key(id), want.Sleep(id), w.parent[local])
			}
		}
	}
}

// TestShardedReuse stops a sleep-lane search partway through a level's
// commit, at a commit Limit, while the level's shrunk masks are pending,
// then empties the store for reuse and replays full searches of two
// sizes on it: each must leave the store as a new one's search does. A
// store that Release hands to NewSharded must do the same, and a store
// over the footprint cap, or a hash-compacted one, is not emptied for
// reuse.
func TestShardedReuse(t *testing.T) {
	const n, limit = 1 << 12, 3 << 10
	want := map[int]*Sharded{}
	revisits := map[int]int{}
	for _, size := range []int{n / 4, n} {
		want[size] = newSharded()
		var done bool
		if done, revisits[size] = sleepSearch(want[size], size, 0); !done {
			t.Fatalf("search of %d states did not complete", size)
		}
	}
	s := newSharded()
	if done, _ := sleepSearch(s, n, limit); done {
		t.Fatalf("search past Limit %d completed", limit)
	}
	pending := 0
	for i := range s.shards {
		pending += len(s.shards[i].shrunk)
	}
	if pending == 0 {
		t.Fatal("the stopped search left no shrunk sleep mask pending")
	}
	replay := func(what string, s *Sharded, size int) {
		t.Helper()
		if _, got := sleepSearch(s, size, 0); got != revisits[size] {
			t.Fatalf("%s: %d revisits, a new store's search makes %d", what, got, revisits[size])
		}
		sameStore(t, what, s, want[size])
	}
	for _, size := range []int{n / 4, n} {
		s.reset()
		replay(fmt.Sprintf("reset store, %d states", size), s, size)
	}

	s.Release()
	r := NewSharded(false)
	t.Logf("NewSharded recycled the released store: %v", r == s)
	replay("store from NewSharded", r, n)
	r.Release()

	for _, hc := range []bool{false, true} {
		big := NewSharded(hc)
		for k := 0; big.Bytes() <= maxPooledBytes; k++ {
			big.Add(u64Key(k), -1, Step{})
		}
		states := big.Len()
		big.Release()
		if big.Len() != states {
			t.Errorf("hashCompact=%v: Release emptied a store of %d bytes for reuse", hc, big.Bytes())
		}
	}
}

// setSearch explores into s, on one worker, the graph of sleepSearch
// without masks, its commit stopped at a positive limit, and reports
// whether the search completed.
func setSearch(s *Set, n, limit int) bool {
	root, _ := s.Add(u64Key(0))
	expand := func(_ int, id int64, b *Batch) bool {
		k := int(binary.LittleEndian.Uint64(s.Key(id)))
		for _, succ := range []int{2*k + 1, 2*k + 2, k + 1} {
			if succ < n {
				b.Add(u64Key(succ), id, Step{}, 0)
			}
		}
		return true
	}
	return RunLevels(1, [][]int64{{root}}, expand, []Commit{{Into: s, Limit: limit}}, nil, RunOpts{})
}

// sameSet fails t unless got holds want's keys under the same ids.
func sameSet(t *testing.T, what string, got, want *Set) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len = %d, want %d", what, got.Len(), want.Len())
	}
	for si := range want.shards {
		g, w := &got.shards[si].keys, &want.shards[si].keys
		if len(g.refs) != len(w.refs) {
			t.Fatalf("%s: shard %d holds %d keys, want %d", what, si, len(g.refs), len(w.refs))
		}
		for local := range w.refs {
			id := int64(local)<<shardBits | int64(si)
			if k := want.Key(id); !bytes.Equal(got.Key(id), k) || !got.Has(k) {
				t.Fatalf("%s: key %d is %x, want %x", what, id, got.Key(id), k)
			}
		}
	}
	if got.Has(u64Key(-1)) {
		t.Fatalf("%s: holds a key never added", what)
	}
}

// TestSetReuse is TestShardedReuse for a Set: a set stopped at a commit
// Limit, emptied and searched again holds what a new set's search does,
// and a set over the footprint cap is not emptied for reuse.
func TestSetReuse(t *testing.T) {
	const n, limit = 1 << 12, 3 << 10
	want := map[int]*Set{}
	for _, size := range []int{n / 4, n} {
		want[size] = newSet()
		if !setSearch(want[size], size, 0) {
			t.Fatalf("search of %d keys did not complete", size)
		}
	}
	s := newSet()
	if setSearch(s, n, limit) {
		t.Fatalf("search past Limit %d completed", limit)
	}
	for _, size := range []int{n / 4, n} {
		s.reset()
		setSearch(s, size, 0)
		sameSet(t, fmt.Sprintf("reset set, %d keys", size), s, want[size])
	}

	s.Release()
	r := NewSet()
	t.Logf("NewSet recycled the released set: %v", r == s)
	setSearch(r, n, 0)
	sameSet(t, "set from NewSet", r, want[n])
	r.Release()

	big := NewSet()
	for k := 0; big.bytes() <= maxPooledBytes; k++ {
		big.Add(u64Key(k))
	}
	keys := big.Len()
	big.Release()
	if big.Len() != keys {
		t.Errorf("Release emptied a set of %d bytes for reuse", big.bytes())
	}
}
