package model

import (
	"bytes"
	"sync"

	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/prog"
	"repro/internal/staterobust"
)

// This file is the interface's robustness monitor for the state models:
// a level-synchronous parallel explorer of the program × MemoryModel
// product that compares every reached program-state projection against
// the SC-reachable set (Definition 2.6). It is the engine under the
// instrumented TSO checker (tsoattack.go), and the reference the
// specialized staterobust engines are parity-tested against.

// CheckState decides state robustness of the program against the model:
// it explores the ε-granular product of the program with mm (forked once
// per further worker, see Limits.Workers) and reports a program state not
// reachable under SC, if any. The Result has staterobust.Result semantics
// (Explored counts compound states, SCStates/WeakStates count
// program-state projections, BufBoundHit ORs every worker's
// mm.BoundHit).
//
// The product is explored breadth-first on explore.RunLevels, checking
// the projection of every newly interned state against
// staterobust.ReachableSC. A violation ends the search only once its BFS
// level is fully interned, so Explored, WeakStates, BufBoundHit and the
// witness length are those of complete levels — independent of worker
// count and scheduling — and the witness is a shortest one. It ends in
// the level's smallest violating projection. The state bound applies to
// the level-complete count too: ErrBound exactly when some explored level
// ends above it.
//
// With lim.Reduce, a program of at most explore.MaxPermThreads threads
// with interchangeable threads (prog.SymClasses), and a machine whose
// Symmetry is non-nil, every successor is folded before interning:
// within each class the members are sorted by their raw program block,
// then by their per-thread memory content, and the same permutation is
// applied to both parts, recorded in the step's Perm. The canonical form
// depends on the state alone, so the counts stay schedule-independent.
// Every orbit is represented at the BFS depth of its shallowest member,
// so the verdict, SCStates, WeakStates, BufBoundHit and the witness
// length are those of the unfolded product; only Explored drops. The
// witness is concretized back into a run of the original program.
//
// The frontier carries store ids only: each state is decoded from its
// key, the raw program state followed by mm's encoding.
func CheckState(program *lang.Program, mm MemoryModel, lim staterobust.Limits) (*staterobust.Result, error) {
	sc, err := staterobust.ReachableSC(program, lim)
	if err != nil {
		return nil, err
	}
	p := prog.New(program)
	store := explore.NewSharded(false)
	weak := explore.NewSet()
	nT := len(p.Threads)
	var (
		classes [][]int    // the folded symmetry classes (nil: no folding)
		tp      ThreadPerm // mm's per-thread view, when folding
	)
	if lim.Reduce && nT <= explore.MaxPermThreads {
		if cls := prog.SymClasses(program); cls != nil {
			if tp = mm.Symmetry(cls); tp != nil {
				classes = cls
			}
		}
	}
	type worker struct {
		mm       MemoryModel
		pj       *staterobust.Projector
		cur, key []byte
		ps, nxt  prog.State
		succs    []Succ
		perm     []uint8
	}
	ws := make([]*worker, lim.WorkerCount())
	for w := range ws {
		wm := mm
		if w > 0 {
			wm = mm.Fork()
		}
		ws[w] = &worker{mm: wm, pj: staterobust.NewProjector(p, lim), ps: p.InitStateRaw(), nxt: p.InitStateRaw(), perm: make([]uint8, nT)}
	}
	n := ws[0].pj.Len()

	// fold canonicalizes the successor (ps, m) under the folded classes:
	// it returns 0 when the successor is its orbit's representative
	// already (or nothing is folded), and otherwise sets wk.key to the
	// representative and returns the packed permutation. Members sort by
	// raw program block, then by memory content.
	fold := func(wk *worker, ps prog.State, m State) uint32 {
		if classes == nil || explore.SortPerm(classes, wk.perm, func(a, b int) int {
			if c := p.CmpThreadsRaw(ps, a, b); c != 0 {
				return c
			}
			return tp.CmpThreads(m, a, b)
		}) {
			return 0
		}
		wk.key = tp.EncodePerm(p.EncodeStateRawPerm(wk.key[:0], ps, wk.perm), m, wk.perm)
		return explore.PackPerm(wk.perm)
	}

	var (
		mu        sync.Mutex
		witness   []byte // smallest violating projection so far
		witnessID int64
	)
	// add interns wk.key, reached from parent by step, and queues it when
	// new. Program steps (proj) also check the new state's projection; a
	// memory-internal step keeps its parent's, checked already.
	add := func(wk *worker, parent int64, step explore.Step, proj bool, push func(int64)) {
		id, isNew := store.Add(wk.key, parent, step)
		if !isNew {
			return
		}
		push(id)
		if !proj {
			return
		}
		pk := wk.pj.Key(wk.key)
		if _, isNew := weak.Add(pk); !isNew || sc.Has(pk) {
			return
		}
		mu.Lock()
		if witness == nil || bytes.Compare(pk, witness) < 0 {
			witness = append(witness[:0], pk...)
			witnessID = id
		}
		mu.Unlock()
	}
	expand := func(w int, id int64, push func(int64)) bool {
		if store.Len() > lim.StateBound() {
			return false // ErrBound below: the count only grows
		}
		wk := ws[w]
		wk.cur = store.AppendKey(wk.cur[:0], id)
		p.DecodeState(wk.cur, wk.ps)
		p.DecodeState(wk.cur, wk.nxt)
		mem := wk.cur[n:]
		m := wk.mm.Decode(mem)
		// Program actions (ε-granular: thread-local steps are their own
		// transitions, exactly as in staterobust.ReachableSC).
		for t := range p.Threads {
			th := &p.Threads[t]
			ts := wk.ps.Threads[t]
			tid := lang.Tid(t)
			switch {
			case th.Terminated(ts):
				continue
			case th.AtEps(ts):
				if th.StepEpsInto(ts, &wk.nxt.Threads[t]) != nil {
					break // a failed assert has no successors
				}
				step := explore.Step{Tid: tid, Internal: explore.IntEps}
				if step.Perm = fold(wk, wk.nxt, m); step.Perm == 0 {
					wk.key = append(p.EncodeStateRaw(wk.key[:0], wk.nxt), mem...)
				}
				add(wk, id, step, true, push)
			default:
				wk.succs = wk.mm.Steps(wk.succs[:0], m, tid, th.Op(ts))
				for _, s := range wk.succs {
					wk.mm.Canon(s.M)
					th.ApplyRawInto(ts, s.Lab, &wk.nxt.Threads[t])
					step := explore.Step{Tid: tid, Lab: s.Lab}
					if step.Perm = fold(wk, wk.nxt, s.M); step.Perm == 0 {
						wk.key = s.M.Encode(p.EncodeStateRaw(wk.key[:0], wk.nxt))
					}
					add(wk, id, step, true, push)
				}
			}
			wk.nxt.Threads[t].PC = ts.PC
			copy(wk.nxt.Threads[t].Regs, ts.Regs)
		}
		// Memory-internal actions.
		for t := range p.Threads {
			tid := lang.Tid(t)
			wk.succs = wk.mm.Internal(wk.succs[:0], m, tid)
			for _, s := range wk.succs {
				wk.mm.Canon(s.M)
				step := explore.Step{Tid: tid, Internal: explore.IntFlush}
				if step.Perm = fold(wk, wk.ps, s.M); step.Perm == 0 {
					wk.key = s.M.Encode(append(wk.key[:0], wk.cur[:n]...))
				}
				add(wk, id, step, false, push)
			}
		}
		return true
	}

	wk := ws[0]
	wk.key = mm.Init().Encode(p.EncodeStateRaw(nil, wk.nxt))
	var root int64
	add(wk, -1, explore.Step{}, true, func(id int64) { root = id })
	if witness == nil {
		more := func() bool { return witness == nil }
		explore.RunLevels(len(ws), []int64{root}, expand, more, lim.RunOpts(store.Len))
	}
	if err := lim.Err(); err != nil {
		return nil, err
	}
	if store.Len() > lim.StateBound() {
		return nil, staterobust.ErrBound
	}
	res := &staterobust.Result{
		Robust:     witness == nil,
		SCStates:   sc.Len(),
		WeakStates: weak.Len(),
		Explored:   store.Len(),
	}
	for _, wk := range ws {
		res.BufBoundHit = res.BufBoundHit || wk.mm.BoundHit()
	}
	if witness != nil {
		res.WitnessTrace = store.Trace(witnessID)
		explore.Concretize(res.WitnessTrace, nT)
	}
	return res, nil
}
