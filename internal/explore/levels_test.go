package explore_test

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/explore"
	"repro/internal/lang"
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

func (g *levelGraph) expand(w int, id int64, b *explore.Batch) bool {
	k := int(binary.LittleEndian.Uint64(g.s.Key(id)))
	g.expanded[k].Add(1)
	g.mu.Lock()
	g.depthOf = append(g.depthOf, bits.Len(uint(k+1))-1)
	g.mu.Unlock()
	for _, succ := range []int{2*k + 1, 2*k + 2, k + 1} {
		if succ >= g.n {
			continue
		}
		b.Add(g.key(succ), id, explore.Step{}, 0)
	}
	return true
}

func (g *levelGraph) commits() []explore.Commit { return []explore.Commit{{Into: g.s}} }

func (g *levelGraph) root() [][]int64 {
	id, _ := g.s.Add(g.key(0))
	return [][]int64{{id}}
}

// TestRunLevelsVisitsAllInOrder checks that every state is expanded
// exactly once, level by level, for several worker counts.
func TestRunLevelsVisitsAllInOrder(t *testing.T) {
	const n = 50_000
	for _, workers := range []int{1, 2, 4, 16} {
		g := newLevelGraph(n)
		if !explore.RunLevels(workers, g.root(), g.expand, g.commits(), nil, explore.RunOpts{}) {
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
		if !explore.RunLevels(workers, g.root(), g.expand, g.commits(), more, explore.RunOpts{}) {
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

// TestRunLevelsRoots checks that roots[d] joins the frontier at level d,
// after the successors of level d-1, even when the frontier ran empty
// before it, and that the search goes on until no roots are left.
func TestRunLevelsRoots(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := explore.NewSet()
		add := func(k int) int64 {
			id, _ := s.Add(binary.LittleEndian.AppendUint64(nil, uint64(k)))
			return id
		}
		var (
			mu      sync.Mutex
			level   int
			levelOf = map[int]int{}
		)
		// State k leads to k+1 while k%10 < 2: chains of three.
		expand := func(w int, id int64, b *explore.Batch) bool {
			k := int(binary.LittleEndian.Uint64(s.Key(id)))
			mu.Lock()
			levelOf[k] = level
			mu.Unlock()
			if k%10 < 2 {
				b.Add(binary.LittleEndian.AppendUint64(nil, uint64(k+1)), id, explore.Step{}, 0)
			}
			return true
		}
		roots := [][]int64{{add(0)}, nil, nil, nil, {add(10), add(20)}, nil, {add(30)}}
		more := func() bool { level++; return true }
		if !explore.RunLevels(workers, roots, expand, []explore.Commit{{Into: s}}, more, explore.RunOpts{}) {
			t.Fatalf("workers=%d: search reported aborted", workers)
		}
		want := map[int]int{0: 0, 1: 1, 2: 2, 10: 4, 11: 5, 12: 6, 20: 4, 21: 5, 22: 6, 30: 6, 31: 7, 32: 8}
		if fmt.Sprint(levelOf) != fmt.Sprint(want) {
			t.Errorf("workers=%d: levels %v, want %v", workers, levelOf, want)
		}
	}
}

// TestRunLevelsAbort checks that a false expand aborts the search and
// reports it.
func TestRunLevelsAbort(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := newLevelGraph(1 << 20)
		expand := func(w int, id int64, b *explore.Batch) bool {
			return g.s.Len() < 5000 && g.expand(w, id, b)
		}
		if explore.RunLevels(workers, g.root(), expand, g.commits(), nil, explore.RunOpts{}) {
			t.Errorf("workers=%d: aborted search reported complete", workers)
		}
		if g.s.Len() >= 1<<20 {
			t.Errorf("workers=%d: abort did not cut the search (%d states)", workers, g.s.Len())
		}
	}
}

// TestRunParallelCancel checks cooperative cancellation on the parallel
// level engine: once the expansion of one particular deep state returns
// false, the search stops without deadlocking and reports it, for one
// worker and for several.
func TestRunParallelCancel(t *testing.T) {
	const n = 1 << 20
	for _, workers := range []int{1, 4} {
		g := newLevelGraph(n)
		expand := func(w int, id int64, b *explore.Batch) bool {
			if binary.LittleEndian.Uint64(g.s.Key(id)) == 4097 { // deep enough that real work precedes it
				return false
			}
			return g.expand(w, id, b)
		}
		if explore.RunLevels(workers, g.root(), expand, g.commits(), nil, explore.RunOpts{}) {
			t.Fatalf("workers=%d: cancelled search reported complete", workers)
		}
		if g.s.Len() >= n {
			t.Errorf("workers=%d: cancellation did not cut the search (visited %d)", workers, g.s.Len())
		}
	}
}

// TestSetConcurrent hammers a Set from several goroutines with
// overlapping keys and checks Add, Has, Len, Key and Range agree.
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
		if got := s.Key(ids[k].Load() - 1); string(got) != want {
			t.Fatalf("Key = %q, want %q", got, want)
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

// TestRunLevelsWorkerIndependence explores levelGraph into a Sharded
// store at 1, 2 and 4 workers: every level interns the same set of keys,
// the store ends with the same Len, and the trace of every state has as
// many steps as the state's depth.
func TestRunLevelsWorkerIndependence(t *testing.T) {
	const n = 40_000
	depth := func(k int) int { return bits.Len(uint(k+1)) - 1 }
	var ref [][]int
	for _, workers := range []int{1, 2, 4} {
		s := explore.NewSharded(false)
		root, _ := s.Add(binary.LittleEndian.AppendUint64(nil, 0), -1, explore.Step{})
		var (
			mu     sync.Mutex
			level  []int
			levels [][]int
			ids    = map[int]int64{0: root}
		)
		expand := func(w int, id int64, b *explore.Batch) bool {
			k := int(binary.LittleEndian.Uint64(s.Key(id)))
			for i, succ := range []int{2*k + 1, 2*k + 2, k + 1} {
				if succ < n {
					b.Add(binary.LittleEndian.AppendUint64(nil, uint64(succ)), id, explore.Step{Tid: lang.Tid(i)}, 0)
				}
			}
			return true
		}
		onNew := func(w int, id int64, key []byte, tag uint8, next *explore.Batch) {
			k := int(binary.LittleEndian.Uint64(key))
			mu.Lock()
			level = append(level, k)
			ids[k] = id
			mu.Unlock()
		}
		more := func() bool {
			sort.Ints(level)
			levels = append(levels, level)
			level = nil
			return true
		}
		if !explore.RunLevels(workers, [][]int64{{root}}, expand, []explore.Commit{{Into: s, On: onNew}}, more, explore.RunOpts{}) {
			t.Fatalf("workers=%d: search reported aborted", workers)
		}
		if s.Len() != n {
			t.Errorf("workers=%d: Len = %d, want %d", workers, s.Len(), n)
		}
		for d, keys := range levels {
			for _, k := range keys {
				if depth(k) != d+1 {
					t.Fatalf("workers=%d: state %d (depth %d) interned on level %d", workers, k, depth(k), d+1)
				}
			}
		}
		for k, id := range ids {
			if got := len(s.Trace(id)); got != depth(k) {
				t.Fatalf("workers=%d: trace of state %d has %d steps, want %d", workers, k, got, depth(k))
			}
		}
		if workers == 1 {
			ref = levels
		} else if fmt.Sprint(levels) != fmt.Sprint(ref) {
			t.Errorf("workers=%d: per-level key sets differ from workers=1", workers)
		}
	}
}

// TestRunLevelsDefer checks that a Deferred entry is committed with the
// next level: on the chain k → k+1 with deferred shortcuts k → k+3,
// state j = 3a+b (b < 3) is first expanded on level 2a+b, even where the
// frontier runs empty before a deferred entry's commit.
func TestRunLevelsDefer(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 3000
		s := explore.NewSet()
		var (
			mu      sync.Mutex
			level   int
			levelOf = map[int]int{}
		)
		expand := func(w int, id int64, b *explore.Batch) bool {
			k := int(binary.LittleEndian.Uint64(s.Key(id)))
			mu.Lock()
			levelOf[k] = level
			mu.Unlock()
			if k+1 < n {
				b.Add(binary.LittleEndian.AppendUint64(nil, uint64(k+1)), id, explore.Step{}, 0)
			}
			if k+3 < n {
				b.Defer(binary.LittleEndian.AppendUint64(nil, uint64(k+3)), id, explore.Step{}, 0)
			}
			return true
		}
		root, _ := s.Add(binary.LittleEndian.AppendUint64(nil, 0))
		more := func() bool { level++; return true }
		if !explore.RunLevels(workers, [][]int64{{root}}, expand, []explore.Commit{{Into: s}}, more, explore.RunOpts{}) {
			t.Fatalf("workers=%d: search reported aborted", workers)
		}
		if len(levelOf) != n || s.Len() != n {
			t.Fatalf("workers=%d: expanded %d states, interned %d, want %d", workers, len(levelOf), s.Len(), n)
		}
		for j, l := range levelOf {
			if want := 2*(j/3) + j%3; l != want {
				t.Fatalf("workers=%d: state %d expanded on level %d, want %d", workers, j, l, want)
			}
		}
	}

	// A frontier of deferred entries only: 0 → 3 → 6, each two levels on.
	s := explore.NewSet()
	var levels []int
	level := 0
	expand := func(w int, id int64, b *explore.Batch) bool {
		k := int(binary.LittleEndian.Uint64(s.Key(id)))
		levels = append(levels, k, level)
		if k < 6 {
			b.Defer(binary.LittleEndian.AppendUint64(nil, uint64(k+3)), id, explore.Step{}, 0)
		}
		return true
	}
	root, _ := s.Add(binary.LittleEndian.AppendUint64(nil, 0))
	explore.RunLevels(1, [][]int64{{root}}, expand, []explore.Commit{{Into: s}}, func() bool { level++; return true }, explore.RunOpts{})
	if fmt.Sprint(levels) != "[0 0 3 2 6 4]" {
		t.Errorf("(state, level) pairs %v, want [0 0 3 2 6 4]", levels)
	}
}

// TestRunLevelsProbe checks a two-commit level: the store's On files each
// new key's projection (its value mod 7) into the next batch, and a Probe
// reports each one missing from a set holding the even projections.
func TestRunLevelsProbe(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := newLevelGraph(5000)
		even := explore.NewSet()
		for v := 0; v < 7; v += 2 {
			even.Add([]byte{byte(v)})
		}
		var (
			mu      sync.Mutex
			missing = map[int64]byte{}
		)
		project := func(w int, id int64, key []byte, tag uint8, next *explore.Batch) {
			next.Add([]byte{byte(binary.LittleEndian.Uint64(key) % 7)}, id, explore.Step{}, 0)
		}
		report := func(w int, id int64, key []byte, tag uint8, next *explore.Batch) {
			if next != nil {
				t.Error("the last commit's On got a next batch")
			}
			mu.Lock()
			missing[id] = key[0]
			mu.Unlock()
		}
		commits := []explore.Commit{{Into: g.s, On: project}, {Into: explore.Probe{Set: even}, On: report}}
		if !explore.RunLevels(workers, g.root(), g.expand, commits, nil, explore.RunOpts{}) {
			t.Fatalf("workers=%d: search reported aborted", workers)
		}
		want := 0
		for k := 1; k < g.n; k++ {
			if k%7%2 == 1 {
				want++
			}
		}
		if len(missing) != want {
			t.Errorf("workers=%d: %d states reported missing, want %d", workers, len(missing), want)
		}
		for id, v := range missing {
			if k := binary.LittleEndian.Uint64(g.s.Key(id)); byte(k%7) != v || v%2 == 0 {
				t.Fatalf("workers=%d: state %d reported with projection %d", workers, k, v)
			}
		}
	}
}

// TestRunLevelsCommitLimit checks that a commit's Limit stops a wide
// level's commit partway: on a root with w successors, each with one
// more, a Limit crossed while committing level 1 ends the search at most
// one shard per worker past it, before any level-1 state is expanded, and
// one crossed while committing level 2 ends it before level 1's later
// rounds are expanded. A Limit of the whole graph's count lets it finish.
func TestRunLevelsCommitLimit(t *testing.T) {
	const w = 20_000
	key := func(k int) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(k)) }
	// The largest number of keys that one shard takes; the shard is the
	// low six bits of a key's first Hash128 lane.
	perShard := map[uint64]int{}
	maxShard := 0
	for k := 1; k <= 2*w; k++ {
		si := explore.Hash128(key(k))[0] & 63
		perShard[si]++
		maxShard = max(maxShard, perShard[si])
	}
	for _, workers := range []int{1, 2, 4} {
		for _, limit := range []int{1, 5_000, w + 1_000, 2*w + 1} {
			s := explore.NewSharded(false)
			root, _ := s.Add(key(0), -1, explore.Step{})
			var mid, deep atomic.Int64 // level-1 and level-2 states expanded
			expand := func(_ int, id int64, b *explore.Batch) bool {
				switch k := int(binary.LittleEndian.Uint64(s.Key(id))); {
				case k == 0:
					for j := 1; j <= w; j++ {
						b.Add(key(j), id, explore.Step{}, 0)
					}
				case k <= w:
					mid.Add(1)
					b.Add(key(w+k), id, explore.Step{}, 0)
				default:
					deep.Add(1)
				}
				return true
			}
			done := explore.RunLevels(workers, [][]int64{{root}}, expand, []explore.Commit{{Into: s, Limit: limit}}, nil, explore.RunOpts{})
			if limit > 2*w {
				if !done || s.Len() != 2*w+1 {
					t.Errorf("workers=%d limit=%d: done=%v Len=%d, want true and %d", workers, limit, done, s.Len(), 2*w+1)
				}
				continue
			}
			if done {
				t.Errorf("workers=%d limit=%d: search over the limit reported complete", workers, limit)
			}
			if n := s.Len(); n <= limit || n > limit+workers*maxShard {
				t.Errorf("workers=%d limit=%d: Len = %d, want in (%d, %d]", workers, limit, n, limit, limit+workers*maxShard)
			}
			if limit <= w && mid.Load() != 0 {
				t.Errorf("workers=%d limit=%d: %d level-1 states expanded", workers, limit, mid.Load())
			}
			if limit > w && mid.Load() >= w {
				t.Errorf("workers=%d limit=%d: all %d level-1 states expanded before the commit stopped", workers, limit, w)
			}
			if deep.Load() != 0 {
				t.Errorf("workers=%d limit=%d: %d states of level 2 expanded", workers, limit, deep.Load())
			}
		}
	}
}
