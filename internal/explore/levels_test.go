package explore_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/explore"
)

// levelGraph is the graph over [0, n) in which state k has successors
// 2k+1, 2k+2 and k+1: shared successors from several parents, and states
// reached on more than one level, so first-visit order matters. A state's
// BFS depth is the bit length of k+1 minus one.
type levelGraph struct {
	n        int
	s        *explore.Set
	mu       sync.Mutex
	depthOf  []int // expansion order's depth, recorded per expansion
	expanded []atomic.Int32
}

func newLevelGraph(n int) *levelGraph {
	return &levelGraph{n: n, s: explore.NewSet(), expanded: make([]atomic.Int32, n)}
}

func (g *levelGraph) key(k int) []byte {
	return binary.LittleEndian.AppendUint64(nil, uint64(k))
}

func (g *levelGraph) expand(w int, id int64, push func(int64)) bool {
	k := int(binary.LittleEndian.Uint64(g.s.AppendKey(nil, id)))
	g.expanded[k].Add(1)
	g.mu.Lock()
	g.depthOf = append(g.depthOf, bits.Len(uint(k+1))-1)
	g.mu.Unlock()
	for _, succ := range []int{2*k + 1, 2*k + 2, k + 1} {
		if succ >= g.n {
			continue
		}
		if sid, isNew := g.s.Add(g.key(succ)); isNew {
			push(sid)
		}
	}
	return true
}

func (g *levelGraph) root() []int64 {
	id, _ := g.s.Add(g.key(0))
	return []int64{id}
}

// TestRunLevelsVisitsAllInOrder checks that every state is expanded
// exactly once, level by level, for several worker counts.
func TestRunLevelsVisitsAllInOrder(t *testing.T) {
	const n = 50_000
	for _, workers := range []int{1, 2, 4, 16} {
		g := newLevelGraph(n)
		if !explore.RunLevels(workers, g.root(), g.expand, nil, explore.RunOpts{}) {
			t.Fatalf("workers=%d: search reported aborted", workers)
		}
		for k := range g.expanded {
			if c := g.expanded[k].Load(); c != 1 {
				t.Fatalf("workers=%d: state %d expanded %d times", workers, k, c)
			}
		}
		for i := 1; i < len(g.depthOf); i++ {
			if g.depthOf[i] < g.depthOf[i-1] {
				t.Fatalf("workers=%d: depth %d expanded after depth %d", workers, g.depthOf[i], g.depthOf[i-1])
			}
		}
	}
}

// TestRunLevelsStopsAfterLevel checks the level-complete early exit: when
// more declines to go on, every state of the levels seen so far has been
// expanded and nothing deeper has, whatever the worker count.
func TestRunLevelsStopsAfterLevel(t *testing.T) {
	const n, stopDepth = 1 << 16, 9
	for _, workers := range []int{1, 2, 4} {
		g := newLevelGraph(n)
		levels := 0
		more := func() bool { levels++; return levels <= stopDepth }
		if !explore.RunLevels(workers, g.root(), g.expand, more, explore.RunOpts{}) {
			t.Fatalf("workers=%d: stopped search reported aborted", workers)
		}
		for k := range g.expanded {
			want := int32(0)
			if bits.Len(uint(k+1))-1 <= stopDepth {
				want = 1
			}
			if c := g.expanded[k].Load(); c != want {
				t.Fatalf("workers=%d: state %d (depth %d) expanded %d times, want %d",
					workers, k, bits.Len(uint(k+1))-1, c, want)
			}
		}
		// The successors of the last level are interned, and no more.
		if want := 1<<(stopDepth+2) - 1; g.s.Len() != want {
			t.Errorf("workers=%d: %d states interned, want %d", workers, g.s.Len(), want)
		}
	}
}

// TestRunLevelsAbort checks that a false expand, or a cancelled context,
// aborts the search and reports it.
func TestRunLevelsAbort(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := newLevelGraph(1 << 20)
		expand := func(w int, id int64, push func(int64)) bool {
			return g.s.Len() < 5000 && g.expand(w, id, push)
		}
		if explore.RunLevels(workers, g.root(), expand, nil, explore.RunOpts{}) {
			t.Errorf("workers=%d: aborted search reported complete", workers)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		g = newLevelGraph(1 << 20)
		if explore.RunLevels(workers, g.root(), g.expand, nil, explore.RunOpts{Ctx: ctx}) || len(g.depthOf) != 0 {
			t.Errorf("workers=%d: cancelled search expanded %d states", workers, len(g.depthOf))
		}
	}
}

// TestSetConcurrent hammers a Set from several goroutines with
// overlapping keys and checks Add, Has, Len, AppendKey and Range agree.
func TestSetConcurrent(t *testing.T) {
	s := explore.NewSet()
	const keys, goroutines = 4000, 4
	var wg sync.WaitGroup
	ids := make([]atomic.Int64, keys)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := (i + g*keys/goroutines) % keys
				key := []byte(fmt.Sprintf("key-%d", k))
				id, isNew := s.Add(key)
				if isNew {
					ids[k].Store(id + 1)
				}
				if !s.Has(key) {
					panic("Has misses a key just added")
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != keys {
		t.Fatalf("Len = %d, want %d", s.Len(), keys)
	}
	for k := range ids {
		want := fmt.Sprintf("key-%d", k)
		if got := s.AppendKey(nil, ids[k].Load()-1); string(got) != want {
			t.Fatalf("AppendKey = %q, want %q", got, want)
		}
	}
	if s.Has([]byte("absent")) {
		t.Error("Has reports a key never added")
	}
	seen := map[string]bool{}
	s.Range(func(key []byte) { seen[string(key)] = true })
	if len(seen) != keys {
		t.Errorf("Range visited %d keys, want %d", len(seen), keys)
	}
}
