package explore_test

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/explore"
)

// levelChunk mirrors levels.go's levelChunk: the ids a worker claims at a
// time, between two polls of RunOpts.Ctx.
const levelChunk = 32

// TestRunLevelsCtxBound checks the cooperative cancellation contract of
// RunOpts.Ctx: after the context fires, the engine expands at most
// workers·levelChunk further states (each worker finishes its in-flight
// chunk and stops). The expansion count is measured by instrumenting
// expand itself, so the bound covers everything the engine did, not just
// what the visited set retained.
func TestRunLevelsCtxBound(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		g := newLevelGraph(1 << 20)
		ctx, cancel := context.WithCancel(context.Background())
		var expanded, afterCancel atomic.Int64
		const fireAt = 10_000
		expand := func(w int, id int64, b *explore.Batch) bool {
			if total := expanded.Add(1); total == fireAt {
				cancel()
			} else if total > fireAt {
				afterCancel.Add(1)
			}
			return g.expand(w, id, b)
		}
		done := explore.RunLevels(workers, g.root(), expand, g.commits(), nil, explore.RunOpts{Ctx: ctx})
		cancel()
		if done {
			t.Fatalf("workers=%d: cancelled search reported complete", workers)
		}
		if bound := int64(workers * levelChunk); afterCancel.Load() > bound {
			t.Errorf("workers=%d: %d expansions after cancel, bound %d", workers, afterCancel.Load(), bound)
		}
	}
}

// TestRunLevelsPreCanceled checks that a context cancelled before the run
// starts stops the engine before it expands anything.
func TestRunLevelsPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		g := newLevelGraph(1 << 20)
		if explore.RunLevels(workers, g.root(), g.expand, g.commits(), nil, explore.RunOpts{Ctx: ctx}) {
			t.Errorf("workers=%d: pre-cancelled search reported complete", workers)
		}
		if len(g.depthOf) != 0 {
			t.Errorf("workers=%d: pre-cancelled search expanded %d states", workers, len(g.depthOf))
		}
	}
}

// TestRunLevelsProgress checks that the progress hook fires once per
// ProgressEvery boundary the expansion count crosses (a chunk is shorter
// than the period, so no crossing is merged), with distinct counts that
// rise in call order on one worker.
func TestRunLevelsProgress(t *testing.T) {
	const n, every = 50_000, 1000
	for _, workers := range []int{1, 4} {
		g := newLevelGraph(n)
		var (
			mu   sync.Mutex
			seen []int64
		)
		done := explore.RunLevels(workers, g.root(), g.expand, g.commits(), nil, explore.RunOpts{
			ProgressEvery: every,
			Progress: func(expanded int64) {
				mu.Lock()
				seen = append(seen, expanded)
				mu.Unlock()
			},
		})
		if !done {
			t.Fatalf("workers=%d: search reported aborted", workers)
		}
		if g.s.Len() != n {
			t.Errorf("workers=%d: visited %d states, want %d", workers, g.s.Len(), n)
		}
		if len(seen) != n/every {
			t.Errorf("workers=%d: progress called %d times, want %d", workers, len(seen), n/every)
		}
		if workers > 1 {
			// Concurrent workers may report crossings out of order.
			sort.Slice(seen, func(i, j int) bool { return seen[i] < seen[j] })
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] <= seen[i-1] {
				t.Fatalf("workers=%d: progress %d after %d", workers, seen[i], seen[i-1])
			}
		}
	}
}
