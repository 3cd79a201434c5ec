package explore_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/explore"
	"repro/internal/lang"
)

// tortureKey builds the i-th torture key: length cycles through a spread
// that includes the empty key, lengths near the arena block size, and
// jumbo keys larger than a block (which get dedicated blocks); the payload
// is a shared prefix plus the index, so keys agree on long prefixes and
// equality checks cannot shortcut on the first byte.
func tortureKey(i int) []byte {
	lengths := []int{0, 1, 7, 31, 100, 1000, 65529, 65536, 70000}
	n := lengths[i%len(lengths)]
	b := make([]byte, n)
	for j := range b {
		b[j] = 0xab
	}
	if n < 4 {
		// Too short for the 4-byte stamp (and only one empty key can
		// exist): fall back to a printed index of the right flavor.
		return []byte(fmt.Sprintf("%d#%d", n, i))
	}
	// Stamp the full index at the tail so every key is distinct.
	for j, k := len(b)-1, uint32(i); j >= len(b)-4; j, k = j-1, k>>8 {
		b[j] = byte(k)
	}
	return b
}

// TestStoreTortureInsertLookup drives the exact store through thousands of
// inserts with hostile key shapes — empty keys, block-boundary lengths,
// jumbo multi-block keys, long shared prefixes — forcing many table grows
// and arena block transitions, then verifies that every id still resolves
// to its exact original bytes and that every re-Add reports a duplicate
// with the original id.
func TestStoreTortureInsertLookup(t *testing.T) {
	s := explore.NewStore()
	const n = 5000
	ids := make([]int32, n)
	for i := 0; i < n; i++ {
		id, isNew := s.AddBytes(tortureKey(i), -1, explore.Step{})
		if !isNew {
			t.Fatalf("key %d reported as duplicate", i)
		}
		ids[i] = id
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for i := 0; i < n; i++ {
		want := tortureKey(i)
		if got := s.KeyBytes(ids[i]); !bytes.Equal(got, want) {
			t.Fatalf("KeyBytes(%d) corrupted: %d bytes, want %d", ids[i], len(got), len(want))
		}
		id, isNew := s.AddBytes(want, -1, explore.Step{})
		if isNew || id != ids[i] {
			t.Fatalf("re-Add of key %d: got (%d, %v), want (%d, false)", i, id, isNew, ids[i])
		}
	}
}

// TestStoreTraceAcrossArenaGrowth builds a long parent chain whose keys
// are big enough that the chain spans many arena blocks, then checks that
// trace reconstruction still walks the full chain and that keys interned
// before every block transition remained stable (interned bytes must never
// move when the arena grows).
func TestStoreTraceAcrossArenaGrowth(t *testing.T) {
	s := explore.NewStore()
	const depth = 300
	key := func(i int) []byte {
		b := make([]byte, 1024) // ~5 chain links per 64 KiB block
		b[0], b[1] = byte(i), byte(i>>8)
		return b
	}
	parent := int32(-1)
	ids := make([]int32, depth)
	for i := 0; i < depth; i++ {
		id, isNew := s.AddBytes(key(i), parent, explore.Step{Tid: lang.Tid(i % 3), Lab: lang.WriteLab(0, lang.Val(i%4))})
		if !isNew {
			t.Fatalf("chain key %d duplicated", i)
		}
		ids[i] = id
		parent = id
	}
	trace := s.Trace(parent)
	if len(trace) != depth-1 {
		t.Fatalf("trace length = %d, want %d", len(trace), depth-1)
	}
	for i, st := range trace {
		if st.Tid != lang.Tid((i+1)%3) {
			t.Fatalf("trace[%d].Tid = %d, want %d", i, st.Tid, (i+1)%3)
		}
	}
	for i := range ids {
		if !bytes.Equal(s.KeyBytes(ids[i]), key(i)) {
			t.Fatalf("key %d moved or corrupted after arena growth", i)
		}
	}
}

// TestShardedConcurrentIntern hammers a Sharded store from many goroutines
// with overlapping key sets (every key is offered by several goroutines, so
// duplicate detection races against first-insert on every shard), then
// verifies the distinct count and that Key reproduces every key
// byte-for-byte once they are done. Run under -race this doubles as the
// data-race check for concurrent arena interning and table growth.
func TestShardedConcurrentIntern(t *testing.T) {
	s := explore.NewSharded(false)
	const (
		workers = 8
		keys    = 3000
	)
	var wg sync.WaitGroup
	idsCh := make(chan map[int]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make(map[int]int64)
			// Each worker covers an overlapping window of the key space.
			for i := 0; i < keys; i++ {
				k := (i + w*keys/4) % keys
				key := []byte(fmt.Sprintf("state-%d-%[1]d", k))
				id, _ := s.Add(key, -1, explore.Step{})
				ids[k] = id
			}
			idsCh <- ids
		}(w)
	}
	wg.Wait()
	close(idsCh)
	if s.Len() != keys {
		t.Fatalf("Len = %d, want %d distinct states", s.Len(), keys)
	}
	// All workers must have observed the same id for the same key.
	ref := make(map[int]int64)
	for ids := range idsCh {
		for k, id := range ids {
			if prev, ok := ref[k]; ok && prev != id {
				t.Fatalf("key %d interned under two ids: %d and %d", k, prev, id)
			}
			ref[k] = id
		}
	}
	for k, id := range ref {
		want := []byte(fmt.Sprintf("state-%d-%[1]d", k))
		if got := s.Key(id); !bytes.Equal(got, want) {
			t.Fatalf("Key(%d) = %q, want %q", id, got, want)
		}
	}
}

// TestShardedHashCompactDedup checks the hash-compacted sharded mode still
// deduplicates and counts correctly (it keeps digests, not keys).
func TestShardedHashCompactDedup(t *testing.T) {
	s := explore.NewSharded(true)
	const n = 2000
	ids := make([]int64, n)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("hc-%d", i))
		id, isNew := s.Add(key, -1, explore.Step{})
		if !isNew {
			t.Fatalf("key %d duplicated", i)
		}
		ids[i] = id
	}
	for i := 0; i < n; i++ {
		id, isNew := s.Add([]byte(fmt.Sprintf("hc-%d", i)), -1, explore.Step{})
		if isNew || id != ids[i] {
			t.Fatalf("re-Add %d: got (%d, %v), want (%d, false)", i, id, isNew, ids[i])
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
}

// smallKeys are 200 distinct state-sized keys: the interning load of a
// litmus-sized verdict.
func smallKeys() [][]byte {
	keys := make([][]byte, 200)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%032d", i))
	}
	return keys
}

// BenchmarkStoreSmall and BenchmarkShardedSmall measure a store's fixed
// cost: set-up plus 200 interns. Every state-robustness verdict builds
// several sharded stores, so on sub-millisecond rows this set-up is a
// visible share of the verdict.
func BenchmarkStoreSmall(b *testing.B) {
	keys := smallKeys()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := explore.NewStore()
		for _, k := range keys {
			s.AddBytes(k, -1, explore.Step{})
		}
	}
}

func BenchmarkShardedSmall(b *testing.B) {
	keys := smallKeys()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := explore.NewSharded(false)
		for _, k := range keys {
			s.Add(k, -1, explore.Step{})
		}
	}
}
