package explore

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// LevelExpand expands state id on behalf of worker w, handing the id of
// each newly interned successor to push. Returning false aborts the whole
// search (state bound exceeded, ...). It is called concurrently from every
// worker; w indexes the caller's per-worker scratch.
type LevelExpand func(w int, id int64, push func(int64)) bool

// levelChunk is the number of frontier ids a worker claims at a time; the
// context is polled and progress accounted once per chunk. A level no
// longer than two chunks is expanded on the calling goroutine, so small
// explorations never start a worker.
const levelChunk = 32

// RunLevels explores breadth-first, one level at a time: every state of
// level d is expanded, by up to workers goroutines (0 or negative:
// GOMAXPROCS), before any state of level d+1. The frontier holds bare
// store ids; expand re-materializes each state from its key. The caller
// interns the roots before calling.
//
// After each level, more (when non-nil) decides whether to go on. When it
// is asked, the level's successors are all interned, so whatever the
// caller has accumulated — states, projections, a violation seen on that
// level — is independent of worker count and scheduling. Stopping there
// gives checkers a schedule-independent early exit: the reported counts
// are those of the complete level, and a witness from it is a shortest
// one.
//
// RunLevels returns false when the search was aborted — by expand or by
// opts.Ctx, observed between chunks — and true when the frontier was
// exhausted or more returned false.
func RunLevels(workers int, roots []int64, expand LevelExpand, more func() bool, opts RunOpts) bool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	every := opts.ProgressEvery
	if every <= 0 {
		every = 4096
	}
	var (
		stop     atomic.Bool
		cursor   atomic.Int64
		expanded atomic.Int64
		level    = append([]int64(nil), roots...)
		next     []int64
	)
	type worker struct {
		out  []int64
		push func(int64)
	}
	ws := make([]*worker, workers)
	for w := range ws {
		wk := &worker{}
		wk.push = func(id int64) { wk.out = append(wk.out, id) }
		ws[w] = wk
	}
	work := func(w int) {
		wk := ws[w]
		for !stop.Load() {
			lo := int(cursor.Add(levelChunk)) - levelChunk
			if lo >= len(level) {
				return
			}
			if opts.Ctx != nil && opts.Ctx.Err() != nil {
				stop.Store(true)
				return
			}
			hi := min(lo+levelChunk, len(level))
			for _, id := range level[lo:hi] {
				if !expand(w, id, wk.push) {
					stop.Store(true)
					return
				}
			}
			n := int64(hi - lo)
			if total := expanded.Add(n); opts.Progress != nil && total/every != (total-n)/every {
				opts.Progress(total)
			}
		}
	}
	var wg sync.WaitGroup
	for len(level) > 0 {
		cursor.Store(0)
		if workers == 1 || len(level) <= 2*levelChunk {
			work(0)
		} else {
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					work(w)
				}(w)
			}
			wg.Wait()
		}
		if stop.Load() {
			return false
		}
		next = next[:0]
		for _, wk := range ws {
			next = append(next, wk.out...)
			wk.out = wk.out[:0]
		}
		level, next = next, level
		if more != nil && !more() {
			return true
		}
	}
	return true
}
