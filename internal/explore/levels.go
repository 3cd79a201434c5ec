package explore

import (
	"context"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// RunOpts gives RunLevels cooperative cancellation and a progress hook.
// The zero value has neither.
type RunOpts struct {
	// Ctx, when non-nil, cancels the search cooperatively: workers observe
	// the cancellation between chunks of levelChunk ids, so at most
	// workers·levelChunk further states are expanded after it fires. A
	// cancelled run returns false, exactly like an aborted one; the caller
	// distinguishes the two by inspecting Ctx.Err itself.
	Ctx context.Context
	// Progress, when non-nil, is invoked from a worker goroutine each time
	// the cumulative expanded-state count crosses a multiple of
	// ProgressEvery, with that count. It runs concurrently with other
	// workers' expansions (and possibly with other Progress calls), so it
	// must be cheap and goroutine-safe.
	Progress func(expanded int64)
	// ProgressEvery is the number of expanded states between Progress
	// calls; 0 means 4096. The boundary is detected at chunk granularity,
	// so calls land within levelChunk states of the exact multiple.
	ProgressEvery int64
}

// LevelExpand expands state id on behalf of worker w, appending its
// successors to b, the worker's batch for the level's first commit.
// Returning false aborts the whole search (a state bound belongs in the
// store commit's Limit instead: the store grows only while committing).
// It is called concurrently from every worker; w indexes the caller's
// per-worker scratch. No other goroutine writes the stores during
// expansion, so expand may read them without their locks (Sharded.Key,
// Set.Key).
type LevelExpand func(w int, id int64, b *Batch) bool

// levelChunk is the number of frontier ids a worker claims at a time; the
// context is polled and progress accounted once per chunk. A level is
// expanded and committed in rounds: the workers claim no more chunks of a
// round once its batches for the first commit hold roundEntries entries,
// which bounds the batches. A round of at most seqLevel ids is expanded
// on the calling goroutine alone, and a commit of at most seqCommit
// entries is run there: either takes about as long as waking another
// worker, which the phase would then wait for. The verifier's
// instrumented states take microseconds each to expand, so a level of a
// few chunks already pays for a second worker.
const (
	levelChunk   = 32
	roundEntries = 1 << 15
	seqLevel     = 2 * levelChunk
	seqCommit    = 8 * seqLevel
)

// A Commit is one shard-grouped commit phase of a RunLevels round: the
// entries the workers batched for it are interned into Into, one shard
// at a time, each shard by one worker under one lock acquisition.
type Commit struct {
	// Into is what the entries are committed to: a *Sharded or a *Set
	// interns them, a Probe looks them up.
	Into Target
	// On, when non-nil, is called for every entry new to Into (for a
	// Probe: absent from its set), by the worker w committing the entry's
	// shard, in the shard's commit order. It gets the entry's new id (for
	// a Probe: the entry's parent), key and tag, and next, w's batch for
	// the following commit (nil after the last). A Sharded commit of
	// sleep-lane entries also calls it, with id|Revisit, for a state it
	// queues for re-expansion (Batch.AddSleep); the id joins the next
	// level like a new one. The key is valid for the call only. On may
	// run under the shard's lock, so it must not touch Into.
	On func(w int, id int64, key []byte, tag uint8, next *Batch)
	// Limit, when positive, bounds Into.Len(): once a shard's commit
	// leaves more than Limit entries in Into, the workers claim no more
	// shards and RunLevels returns false. So a search that crosses a
	// state bound stops at most one shard per worker past it, not a whole
	// level.
	Limit int
}

// A Target is what a commit phase interns a level's entries into.
type Target interface {
	// commit interns the entries of shard si of the given buckets, in
	// order, calling on for every one that is new (for a Probe: absent),
	// with its id (a Probe: its parent), and for every revisit.
	commit(si int, bks []*bucket, on func(id int64, tag uint8, key []byte))
	// Len returns the number of entries interned (0 for a Probe).
	Len() int
	// endLevel is called once every round of a level is committed.
	endLevel()
}

// Probe commits a level's entries as lookups into Set: an entry is
// reported to the commit's On when its key is not in the set.
type Probe struct{ Set *Set }

// Len is 0: a Probe interns nothing.
func (Probe) Len() int { return 0 }

func (Probe) endLevel() {}

// RunLevels explores breadth-first, one level at a time: every state of
// level d is expanded, by up to workers goroutines (0 or negative:
// GOMAXPROCS), before any state of level d+1. The frontier holds bare
// store ids; expand re-materializes each state from its key.
//
// A level runs in rounds of its ids, and a round in phases. A round
// batches about roundEntries entries for its first commit, and no more
// than that commit's Limit leaves room for, so that a search that crosses
// its bound expands little past it. Expansion appends each successor to
// the worker's Batch, with its Hash128, and writes no store. Then each of
// commits runs in turn: the workers claim shards through a shared cursor,
// and a shard's entries from every worker's batch are interned together,
// so each shard is locked once and its table stays in cache while it
// takes them. The ids
// new to commits[0].Into in the rounds of level d form level d+1,
// followed by roots[d+1]; the On of each commit may fill the batches of
// the next one (a state's projection, say, filed into or probed against a
// Set). An entry a batch Defers joins the first commit of the following
// level instead, one level deeper. A shard's commit order is the workers'
// order, each worker's in the order it batched them, so which ids the
// states get depends on the schedule but what a level interns does not.
//
// Level d is the ids new to the commit of level d-1 followed by roots[d],
// so a caller can resume a search with states it met on earlier levels of
// another one, each at its own depth. The caller interns the roots before
// calling, and the search runs until the frontier is empty, no roots are
// left and no deferred entry waits.
//
// After each level, more (when non-nil) decides whether to go on. When it
// is asked, the level's successors are all committed, so whatever the
// caller has accumulated — states, projections, a violation seen on that
// level — is independent of worker count and scheduling. Stopping there
// gives checkers a schedule-independent early exit: the reported counts
// are those of the complete level, and a witness from it is a shortest
// one.
//
// RunLevels returns false when the search was aborted — by expand, by a
// commit's Limit or by opts.Ctx, observed between chunks; the aborted
// level's uncommitted entries are dropped — and true when the frontier
// was exhausted or more returned false.
func RunLevels(workers int, roots [][]int64, expand LevelExpand, commits []Commit, more func() bool, opts RunOpts) bool {
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
		batched  atomic.Int64 // this round's entries for commits[0]
		budget   int64        // the round's cap on batched
		level    []int64
		part     []int64 // the ids of level expanded in this round
		next     []int64
		shards   []int
	)
	type worker struct {
		out     []int64
		batches []*Batch                     // one per commit
		ons     []func(int64, uint8, []byte) // one per commit: On, and out for the first
		bks     []*bucket                    // one shard's buckets of every worker
	}
	ws := make([]*worker, workers)
	for w := range ws {
		wk := &worker{batches: make([]*Batch, len(commits)), ons: make([]func(int64, uint8, []byte), len(commits))}
		for k := range wk.batches {
			wk.batches[k] = batchPool.Get().(*Batch)
		}
		ws[w] = wk
	}
	defer func() {
		for _, wk := range ws {
			for _, b := range wk.batches {
				b.clear()
				batchPool.Put(b)
			}
		}
	}()
	for w, wk := range ws {
		for k, c := range commits {
			var nb *Batch
			if k+1 < len(commits) {
				nb = wk.batches[k+1]
			}
			first, on := k == 0, c.On
			wk.ons[k] = func(id int64, tag uint8, key []byte) {
				if first {
					wk.out = append(wk.out, id)
				}
				if on != nil {
					on(w, id, key, tag, nb)
				}
			}
		}
	}
	expandWork := func(w int) {
		b := ws[w].batches[0]
		for !stop.Load() && batched.Load() < budget {
			lo := int(cursor.Add(levelChunk)) - levelChunk
			if lo >= len(part) {
				return
			}
			if opts.Ctx != nil && opts.Ctx.Err() != nil {
				stop.Store(true)
				return
			}
			hi := min(lo+levelChunk, len(part))
			n0 := b.now.n
			for _, id := range part[lo:hi] {
				if !expand(w, id, b) {
					stop.Store(true)
					return
				}
			}
			batched.Add(int64(b.now.n - n0))
			n := int64(hi - lo)
			if total := expanded.Add(n); opts.Progress != nil && total/every != (total-n)/every {
				opts.Progress(total)
			}
		}
	}
	commitWork := func(k int) func(w int) {
		return func(w int) {
			wk := ws[w]
			c := &commits[k]
			for !stop.Load() {
				i := int(cursor.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				si := shards[i]
				wk.bks = wk.bks[:0]
				for _, o := range ws {
					if b := o.batches[k]; b.now.mask&(1<<si) != 0 {
						wk.bks = append(wk.bks, &b.now.bks[si])
					}
				}
				c.Into.commit(si, wk.bks, wk.ons[k])
				for _, bk := range wk.bks {
					bk.reset()
				}
				if c.Limit > 0 && c.Into.Len() > c.Limit {
					stop.Store(true)
				}
			}
		}
	}
	commitWorks := make([]func(int), len(commits))
	for k := range commits {
		commitWorks[k] = commitWork(k)
	}
	var wg sync.WaitGroup
	run := func(wide bool, f func(w int)) {
		cursor.Store(0)
		if wide {
			for w := 1; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					f(w)
				}(w)
			}
		}
		f(0) // the calling goroutine is worker 0
		wg.Wait()
	}
	deferred := false
	for d := 0; len(level) > 0 || d < len(roots) || deferred; d++ {
		if d < len(roots) {
			level = append(level, roots[d]...)
		}
		// A wide level is expanded and committed in rounds, each ending
		// once its batches hold budget entries; the chunks claimed by
		// then are the round's ids.
		for lo, first := 0, true; first || lo < len(level); lo, first = lo+len(part), false {
			part = level[lo:]
			budget = roundEntries
			if c := commits[0]; c.Limit > 0 {
				budget = max(min(budget, int64(c.Limit-c.Into.Len())), 1)
			}
			batched.Store(0)
			run(workers > 1 && len(part) > seqLevel, expandWork)
			if stop.Load() {
				return false
			}
			part = part[:min(int(cursor.Load()), len(part))]
			for k := range commits {
				var mask uint64
				entries := 0
				for _, wk := range ws {
					mask |= wk.batches[k].now.mask
					entries += wk.batches[k].now.n
				}
				shards = shards[:0]
				for ; mask != 0; mask &= mask - 1 {
					shards = append(shards, bits.TrailingZeros64(mask))
				}
				run(workers > 1 && entries > seqCommit, commitWorks[k])
				if stop.Load() {
					return false
				}
				for _, wk := range ws {
					now := &wk.batches[k].now // its buckets are reset
					now.mask, now.n = 0, 0
				}
			}
		}
		for _, c := range commits {
			c.Into.endLevel()
		}
		deferred = false
		for _, wk := range ws {
			for _, b := range wk.batches {
				deferred = b.advance() || deferred
			}
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

// A Batch is one worker's entries for one commit phase of a RunLevels
// round: keys with their Hash128, grouped by the shard the hash selects,
// plus a mask of the shards touched, so a light round commits only those.
// Batches are pooled, and their buffers kept from level to level and run
// to run, so batching allocates nothing in steady state.
type Batch struct {
	now   batchSet // committed with this round
	later batchSet // Deferred: committed with the next level's first round
}

type batchSet struct {
	mask uint64
	n    int // entries
	bks  [numShards]bucket
}

// bucket is one shard's entries of a batch, their keys packed in keys.
// sleep is the sleep lane: each entry's mask when the batch's entries
// were added with AddSleep, and empty otherwise, so the entries of
// callers without sleep sets carry no mask.
type bucket struct {
	keys  []byte
	ents  []entry
	sleep []uint64
}

// entry is one batched key: the Hash128 lane that probes its shard's
// table, the parent and step recorded if it is new to a Sharded store,
// and the caller's tag.
type entry struct {
	h      uint64
	parent int64
	step   Step
	off, n uint32 // the key in its bucket's keys
	tag    uint8
}

var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// Add batches key, reached from parent by step, for this round's commit.
// The key is copied, so callers may reuse the backing buffer.
func (b *Batch) Add(key []byte, parent int64, step Step, tag uint8) {
	b.now.add(key, parent, step, tag)
}

// AddSleep is Add for sleep-set exploration: sleep is the mask of
// threads the arriving edge justifies putting to sleep at the target
// state. A Sharded store commits the mask with the entry: a new state
// takes the intersection of the masks of every entry of its level that
// reaches it, and an already expanded state whose mask strictly shrinks
// is handed to the commit's On again, as id|Revisit, so that RunLevels
// expands it once more on the next level. Until that level starts the
// state's Sleep mask stays what it was, so what a level expands does not
// depend on how it is split into rounds. A batch's entries are either
// all added with AddSleep or none.
func (b *Batch) AddSleep(key []byte, parent int64, step Step, sleep uint64) {
	bk := b.now.add(key, parent, step, 0)
	bk.sleep = append(bk.sleep, sleep)
}

// Defer batches key for the next level's commit: a new state it names
// joins the frontier one level later than an Add's, as the target of a
// step that stands for two.
func (b *Batch) Defer(key []byte, parent int64, step Step, tag uint8) {
	b.later.add(key, parent, step, tag)
}

// advance readies b, committed, for the next level: the Deferred entries
// move in, and it reports whether there were any.
func (b *Batch) advance() bool {
	b.now.mask, b.later.mask = b.later.mask, 0
	b.now.n, b.later.n = b.later.n, 0
	for m := b.now.mask; m != 0; m &= m - 1 {
		si := bits.TrailingZeros64(m)
		dst, src := &b.now.bks[si], &b.later.bks[si]
		dst.keys, dst.ents = append(dst.keys, src.keys...), append(dst.ents, src.ents...)
		src.reset()
	}
	return b.now.mask != 0
}

// clear empties b, for the pool.
func (b *Batch) clear() {
	for _, s := range []*batchSet{&b.now, &b.later} {
		for m := s.mask; m != 0; m &= m - 1 {
			s.bks[bits.TrailingZeros64(m)].reset()
		}
		s.mask, s.n = 0, 0
	}
}

func (s *batchSet) add(key []byte, parent int64, step Step, tag uint8) *bucket {
	h := Hash128(key)
	si := h[0] & shardMask
	bk := &s.bks[si]
	off := len(bk.keys)
	bk.keys = append(bk.keys, key...)
	bk.ents = append(bk.ents, entry{h: h[1], parent: parent, step: step, off: uint32(off), n: uint32(len(key)), tag: tag})
	s.mask |= 1 << si
	s.n++
	return bk
}

func (bk *bucket) key(e *entry) []byte { return bk.keys[e.off : e.off+e.n : e.off+e.n] }

func (bk *bucket) reset() { bk.keys, bk.ents, bk.sleep = bk.keys[:0], bk.ents[:0], bk.sleep[:0] }

func (p Probe) commit(si int, bks []*bucket, on func(int64, uint8, []byte)) {
	sh := &p.Set.shards[si]
	sh.mu.Lock()
	for _, bk := range bks {
		for i := range bk.ents {
			e := &bk.ents[i]
			if key := bk.key(e); !sh.keys.has(key, e.h) {
				on(e.parent, e.tag, key)
			}
		}
	}
	sh.mu.Unlock()
}
