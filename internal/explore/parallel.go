package explore

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Item pairs a Sharded-store id with a frontier payload.
type Item[T any] struct {
	ID int64
	St T
}

// Expand processes one frontier item on behalf of worker w: decode the
// payload, run the per-state checks, and hand each newly-interned
// successor to push. Returning false cancels the whole search
// cooperatively (violation found, state bound exceeded, ...).
//
// Expand is called concurrently from every worker; w indexes any
// per-worker scratch state the caller keeps. Items pushed by one worker
// may be expanded by any other.
type Expand[T any] func(w int, it Item[T], push func(Item[T])) bool

// batchSize is the unit of frontier hand-off: workers accumulate newly
// discovered states in a local buffer and publish them to the shared
// frontier a batch at a time, and likewise claim work a batch at a time,
// so the shared lock is taken twice per ~64 states rather than twice per
// state.
const batchSize = 64

// RunParallel explores the state space spanned by roots with the given
// number of workers (0 or negative: GOMAXPROCS). The caller interns roots
// in its store before calling (they are expanded like any other item).
// It returns true when the frontier was exhausted and false when some
// Expand call cancelled the search.
//
// The exploration order is batched LIFO, not strict BFS: on a full run
// every reachable state is expanded exactly once (assuming the caller's
// push discipline: push each state exactly once, when its store Add
// reports it new), so full-run results — verdicts, state counts — are
// deterministic and worker-count-independent. Cancelled runs stop at a
// nondeterministic frontier cut; only which counterexample is found may
// vary, never whether one exists.
func RunParallel[T any](workers int, roots []Item[T], expand Expand[T]) bool {
	return RunParallelOpts(workers, roots, expand, RunOpts{})
}

// RunOpts extends RunParallel and RunLevels with cooperative cancellation
// and a progress hook. The zero value is RunParallel's behaviour.
type RunOpts struct {
	// Ctx, when non-nil, cancels the search cooperatively: workers observe
	// the cancellation between frontier batches (RunLevels: chunks), so at
	// most workers·batchSize further items are expanded after it fires. A
	// cancelled run returns false, exactly like an Expand-initiated cancel;
	// the caller distinguishes the two by inspecting Ctx.Err itself.
	Ctx context.Context
	// Progress, when non-nil, is invoked from a worker goroutine each time
	// the cumulative expanded-item count crosses a multiple of
	// ProgressEvery, with that count. It runs concurrently with other
	// workers' expansions (and possibly with other Progress calls), so it
	// must be cheap and goroutine-safe.
	Progress func(expanded int64)
	// ProgressEvery is the number of expanded items between Progress
	// calls; 0 means 4096. The boundary is detected at batch granularity,
	// so calls land within batchSize items of the exact multiple.
	ProgressEvery int64
}

// RunParallelOpts is RunParallel with cancellation and progress reporting
// (see RunOpts). It returns false when the search was cancelled — by an
// Expand call or by opts.Ctx — and true when the frontier was exhausted.
func RunParallelOpts[T any](workers int, roots []Item[T], expand Expand[T], opts RunOpts) bool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &engine[T]{ctx: opts.Ctx, progress: opts.Progress, every: opts.ProgressEvery}
	if e.every <= 0 {
		e.every = 4096
	}
	e.cond = sync.NewCond(&e.mu)
	if len(roots) > 0 {
		e.batches = append(e.batches, roots)
		e.pending = len(roots)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.work(w, expand)
		}(w)
	}
	wg.Wait()
	return !e.stop.Load()
}

type engine[T any] struct {
	ctx      context.Context
	progress func(expanded int64)
	every    int64
	expanded atomic.Int64

	mu      sync.Mutex
	cond    *sync.Cond
	batches [][]Item[T]
	// free holds retired batch buffers for reuse, so steady-state frontier
	// hand-off allocates no batch slices (the free list is bounded by the
	// peak number of in-flight batches).
	free [][]Item[T]
	// pending counts items that are on the frontier or claimed by a worker
	// and not yet fully expanded; the search is over when it reaches zero.
	pending int
	stop    atomic.Bool
}

// newBatchLocked returns an empty batch buffer, reusing a retired one when
// available. Caller holds e.mu.
func (e *engine[T]) newBatchLocked() []Item[T] {
	if n := len(e.free); n > 0 {
		b := e.free[n-1][:0]
		e.free = e.free[:n-1]
		return b
	}
	return make([]Item[T], 0, batchSize)
}

func (e *engine[T]) work(w int, expand Expand[T]) {
	out := make([]Item[T], 0, batchSize)
	push := func(it Item[T]) {
		out = append(out, it)
		if len(out) >= batchSize {
			out = e.inject(out)
		}
	}
	for {
		if !e.note(0) {
			e.cancel()
			return
		}
		batch := e.take()
		if batch == nil {
			return
		}
		for _, it := range batch {
			if e.stop.Load() {
				break
			}
			if !expand(w, it, push) {
				e.cancel()
				break
			}
		}
		// Drop payload references before the buffer goes back on the free
		// list; reuse only overwrites slots up to the next batch's length.
		clear(batch)
		out = e.finish(len(batch), out, batch)
		if !e.note(len(batch)) {
			e.cancel()
			return
		}
	}
}

// note accounts a processed batch against the progress and cancellation
// hooks; it reports whether the worker should keep going. Both checks run
// at batch granularity to keep their cost (an atomic add, a context poll)
// off the per-item hot path.
func (e *engine[T]) note(processed int) bool {
	if processed > 0 {
		total := e.expanded.Add(int64(processed))
		if e.progress != nil && total/e.every != (total-int64(processed))/e.every {
			e.progress(total)
		}
	}
	return e.ctx == nil || e.ctx.Err() == nil
}

// take claims one batch of frontier items, blocking while the frontier is
// empty but other workers still hold unexpanded items (which may yet
// produce more). It returns nil when the search is over.
func (e *engine[T]) take() []Item[T] {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if e.stop.Load() || e.pending <= 0 {
			return nil
		}
		if n := len(e.batches); n > 0 {
			b := e.batches[n-1]
			e.batches = e.batches[:n-1]
			return b
		}
		e.cond.Wait()
	}
}

// inject publishes a full local out-buffer mid-batch and returns a fresh
// (recycled when possible) buffer for the worker to keep filling.
func (e *engine[T]) inject(b []Item[T]) []Item[T] {
	e.mu.Lock()
	if !e.stop.Load() {
		e.batches = append(e.batches, b)
		e.pending += len(b)
		e.cond.Signal()
	}
	nb := e.newBatchLocked()
	e.mu.Unlock()
	return nb
}

// finish retires a processed batch (recycling its buffer) and publishes
// any remaining out-buffer in the same critical section, returning the
// worker's next out-buffer — out itself when it was not handed off, a
// recycled one otherwise.
func (e *engine[T]) finish(processed int, out, done []Item[T]) []Item[T] {
	e.mu.Lock()
	handedOff := false
	if len(out) > 0 && !e.stop.Load() {
		e.batches = append(e.batches, out)
		e.pending += len(out)
		handedOff = true
	}
	e.free = append(e.free, done[:0])
	e.pending -= processed
	if e.pending <= 0 || e.stop.Load() {
		e.cond.Broadcast()
	} else if handedOff {
		e.cond.Signal()
	}
	if handedOff {
		out = e.newBatchLocked()
	}
	e.mu.Unlock()
	return out
}

// cancel requests cooperative termination: workers observe the flag
// between items and drain.
func (e *engine[T]) cancel() {
	e.stop.Store(true)
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
}
