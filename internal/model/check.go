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
// the SC-reachable set (Definition 2.6). It is the engine of both TSO
// modes, state-tso (NewTSO) and the instrumented tso (tsoattack.go), and
// the reference staterobust's RA explorer is parity-tested against.

// CheckState decides state robustness of the program against the model:
// it explores the ε-granular product of the program with mm (forked once
// per further worker, see Limits.Workers) and reports a program state not
// reachable under SC, if any. The Result has staterobust.Result semantics
// (Explored counts compound states, SCStates counts the SC-reachable
// program-state projections, WeakStates those plus the non-SC ones
// reached, BufBoundHit ORs every worker's mm.BoundHit).
//
// When mm has quiescent states (MemoryModel.Quiescent: SC, TSO and the
// lazy single-delayer TSO), the SC backbone is part of the product, and
// CheckState explores it there instead of in a separate
// staterobust.ReachableSC run: one store, two level-synchronous passes.
//   - Pass 1 expands the quiescent states by their SC steps, computed on
//     the raw memory bytes as ReachableSC computes them. It reaches
//     exactly the SC-reachable compound states, and their projections
//     are the SC set. A delaying thread's SC store is two steps of mm, a
//     buffered store and its flush; pass 1 takes them as one fused step,
//     whose successor it commits with the next level (explore.Batch.Defer)
//     so that every state keeps its depth in the product, and files the
//     state as an episode root at its depth.
//   - Pass 2 resumes on the episode roots, each on the level of its
//     depth, and expands them through mm by the buffered stores that
//     open their episodes, and every new state from there in full. It
//     checks each projection against the now complete SC set.
//
// Other machines (RA, SRA) take the SC set from ReachableSC and run pass 2
// alone, from the initial state.
//
// Both passes run on explore.RunLevels: a level's successors are interned
// into the store after its expansion, and then the projections of the new
// ones are filed into sc (pass 1) or probed against it (pass 2), each
// commit grouped by shard. A violation ends pass 2 only once its level is
// fully committed, so Explored, WeakStates, BufBoundHit and the witness
// length are those of complete levels — independent of worker count and
// scheduling. The witness ends in the level's smallest violating
// projection; its fused steps are split again, so each of its steps is
// one step of mm. The state bound applies to the level-complete count of
// both passes: ErrBound exactly when some explored level ends above it.
// The store commit is the bound's Limit, so such a level stops interning
// at most one shard per worker past it.
//
// With lim.Reduce, a program of at most explore.MaxPermThreads threads
// with interchangeable threads (prog.SymClasses), and a machine whose
// Symmetry is non-nil, every successor is folded before interning:
// within each class the members are sorted by their raw program block,
// then by their per-thread memory content, and the same permutation is
// applied to both parts, recorded in the step's Perm. The canonical form
// depends on the state alone, and both passes treat the members of an
// orbit alike, so every orbit is represented at the depth of its
// shallowest member: the verdict, SCStates, WeakStates, BufBoundHit and
// the witness length are those of the unfolded product; only Explored
// drops. The witness is concretized back into a run of the original
// program.
//
// The frontier carries store ids only: each state is decoded from its
// key, the raw program state followed by mm's encoding.
func CheckState(program *lang.Program, mm MemoryModel, lim staterobust.Limits) (*staterobust.Result, error) {
	quiet := mm.Quiescent() // non-nil: pass 1 runs and fills sc
	var sc *explore.Set
	if quiet != nil {
		sc = explore.NewSet()
	} else {
		var err error
		if sc, err = staterobust.ReachableSC(program, lim); err != nil {
			return nil, err
		}
	}
	p := prog.New(program)
	store := explore.NewSharded(false)
	// Nothing the result holds aliases the store or sc: the witness
	// projection is a copy, and the trace is rebuilt from the links.
	defer store.Release()
	defer sc.Release()
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
		mm            MemoryModel
		pj            *staterobust.Projector
		cur, key, mem []byte
		ps, nxt       prog.State
		succs         []Succ
		perm          []uint8
		roots         []int64 // pass 1: the episode roots met, in depth order
		rootsAt       []int   // where each depth's roots start
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
	// raw program block, then by memory content. A nil m stands for the
	// quiescent memory encoded by mem, which holds no per-thread content.
	fold := func(wk *worker, ps prog.State, m State, mem []byte) uint32 {
		if classes == nil || explore.SortPerm(classes, wk.perm, func(a, b int) int {
			if c := p.CmpThreadsRaw(ps, a, b); c != 0 || m == nil {
				return c
			}
			return tp.CmpThreads(m, a, b)
		}) {
			return 0
		}
		wk.key = p.EncodeStateRawPerm(wk.key[:0], ps, wk.perm)
		if m == nil {
			wk.key = append(wk.key, mem...)
		} else {
			wk.key = tp.EncodePerm(wk.key, m, wk.perm)
		}
		return explore.PackPerm(wk.perm)
	}

	var (
		depth     int // the level pass 1 is expanding
		mu        sync.Mutex
		extra     = map[string]bool{} // the reached projections outside sc
		witness   []byte              // the smallest of them
		witnessID int64
	)
	// project is the store commit's On: it batches the projection of a
	// new state reached by a program step (tag proj) for the commit into
	// sc (pass 1) or the probe against it (pass 2). A memory-internal
	// step keeps its parent's projection, filed already.
	project := func(w int, id int64, key []byte, tag uint8, next *explore.Batch) {
		if tag == proj {
			next.Add(ws[w].pj.Key(key), id, explore.Step{}, 0)
		}
	}
	// outside is pass 2's probe On: it records a projection outside sc,
	// reached by state id, and keeps the smallest as the witness.
	outside := func(w int, id int64, pk []byte, tag uint8, next *explore.Batch) {
		mu.Lock()
		if !extra[string(pk)] {
			extra[string(pk)] = true
			if witness == nil || bytes.Compare(pk, witness) < 0 {
				witness = append(witness[:0], pk...)
				witnessID = id
			}
		}
		mu.Unlock()
	}
	// expandSC is pass 1's expansion of a quiescent state, by its SC
	// steps on the raw memory bytes. The successor of a delaying thread's
	// store is two steps deep, so it is committed with the next level.
	expandSC := func(w int, id int64, b *explore.Batch) bool {
		wk := ws[w]
		wk.cur = append(wk.cur[:0], store.Key(id)...)
		p.DecodeState(wk.cur, wk.ps)
		p.DecodeState(wk.cur, wk.nxt)
		mem := wk.cur[n:]
		root := false
		for t := range p.Threads {
			th := &p.Threads[t]
			ts := wk.ps.Threads[t]
			if th.Terminated(ts) {
				continue
			}
			step, next, ok := explore.Step{Tid: lang.Tid(t)}, mem, false
			if th.AtEps(ts) {
				step.Internal = explore.IntEps
				ok = th.StepEpsInto(ts, &wk.nxt.Threads[t]) == nil // a failed assert has no successors
			} else {
				op := th.Op(ts)
				if op.Kind == prog.OpWrite && quiet.Delays[t] {
					step.Internal, root = explore.IntFused, true
				}
				if step.Lab, ok = prog.SCLabel(op, lang.Val(mem[op.Loc]), program.ValCount); ok {
					th.ApplyRawInto(ts, step.Lab, &wk.nxt.Threads[t])
					next = append(wk.mem[:0], mem...)
					if step.Lab.Typ != lang.LRead {
						next[step.Lab.Loc] = byte(step.Lab.VW)
					}
					wk.mem = next
				}
			}
			if ok {
				if step.Perm = fold(wk, wk.nxt, nil, next); step.Perm == 0 {
					wk.key = append(p.EncodeStateRaw(wk.key[:0], wk.nxt), next...)
				}
				if step.Internal == explore.IntFused {
					b.Defer(wk.key, id, step, proj)
				} else {
					b.Add(wk.key, id, step, proj)
				}
			}
			wk.nxt.Threads[t].PC = ts.PC
			copy(wk.nxt.Threads[t].Regs, ts.Regs)
		}
		if root {
			for len(wk.rootsAt) <= depth {
				wk.rootsAt = append(wk.rootsAt, len(wk.roots))
			}
			wk.roots = append(wk.roots, id|episodeRoot)
		}
		return true
	}
	// expand is pass 2's expansion, through mm: of an episode root, by the
	// buffered stores that open its episodes; of any other state, in full.
	expand := func(w int, id int64, b *explore.Batch) bool {
		wk := ws[w]
		root := id&episodeRoot != 0
		id &^= episodeRoot
		wk.cur = append(wk.cur[:0], store.Key(id)...)
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
			case root && (th.AtEps(ts) || !quiet.Delays[t] || th.Op(ts).Kind != prog.OpWrite):
				continue
			case th.AtEps(ts):
				if th.StepEpsInto(ts, &wk.nxt.Threads[t]) != nil {
					break // a failed assert has no successors
				}
				step := explore.Step{Tid: tid, Internal: explore.IntEps}
				if step.Perm = fold(wk, wk.nxt, m, nil); step.Perm == 0 {
					wk.key = append(p.EncodeStateRaw(wk.key[:0], wk.nxt), mem...)
				}
				b.Add(wk.key, id, step, proj)
			default:
				wk.succs = wk.mm.Steps(wk.succs[:0], m, tid, th.Op(ts))
				for _, s := range wk.succs {
					wk.mm.Canon(s.M)
					th.ApplyRawInto(ts, s.Lab, &wk.nxt.Threads[t])
					step := explore.Step{Tid: tid, Lab: s.Lab}
					if step.Perm = fold(wk, wk.nxt, s.M, nil); step.Perm == 0 {
						wk.key = s.M.Encode(p.EncodeStateRaw(wk.key[:0], wk.nxt))
					}
					b.Add(wk.key, id, step, proj)
				}
			}
			wk.nxt.Threads[t].PC = ts.PC
			copy(wk.nxt.Threads[t].Regs, ts.Regs)
		}
		if root {
			return true // a quiescent state has no internal actions
		}
		// Memory-internal actions.
		for t := range p.Threads {
			tid := lang.Tid(t)
			wk.succs = wk.mm.Internal(wk.succs[:0], m, tid)
			for _, s := range wk.succs {
				wk.mm.Canon(s.M)
				step := explore.Step{Tid: tid, Internal: explore.IntFlush}
				if step.Perm = fold(wk, wk.ps, s.M, nil); step.Perm == 0 {
					wk.key = s.M.Encode(append(wk.key[:0], wk.cur[:n]...))
				}
				b.Add(wk.key, id, step, 0)
			}
		}
		return true
	}

	key := mm.Init().Encode(p.EncodeStateRaw(nil, ws[0].nxt))
	rootID, _ := store.Add(key, -1, explore.Step{})
	roots := [][]int64{{rootID}}
	opts := lim.RunOpts(store.Len)
	ok := true
	if quiet != nil {
		sc.Add(ws[0].pj.Key(key)) // pass 2 needs no probe: the initial projection is in sc
		next := func() bool { depth++; return true }
		commits := []explore.Commit{{Into: store, On: project, Limit: lim.StateBound()}, {Into: sc}}
		ok = explore.RunLevels(len(ws), roots, expandSC, commits, next, opts)
		// Gather the episode roots by depth, each worker's in one run.
		roots = roots[:0]
		var all []int64
		for d := 0; ; d++ {
			start, more := len(all), false
			for _, wk := range ws {
				if d < len(wk.rootsAt) {
					end := len(wk.roots)
					if d+1 < len(wk.rootsAt) {
						end = wk.rootsAt[d+1]
					}
					all = append(all, wk.roots[wk.rootsAt[d]:end]...)
					more = true
				}
			}
			if !more {
				break
			}
			roots = append(roots, all[start:len(all):len(all)])
		}
	}
	if ok {
		more := func() bool { return witness == nil }
		commits := []explore.Commit{{Into: store, On: project, Limit: lim.StateBound()}, {Into: explore.Probe{Set: sc}, On: outside}}
		explore.RunLevels(len(ws), roots, expand, commits, more, opts)
	}
	if err := lim.Err(); err != nil {
		return nil, err
	}
	if store.Len() > lim.StateBound() {
		return nil, explore.ErrBound
	}
	res := &staterobust.Result{
		Robust:     witness == nil,
		SCStates:   sc.Len(),
		WeakStates: sc.Len() + len(extra),
		Explored:   store.Len(),
	}
	for _, wk := range ws {
		res.BufBoundHit = res.BufBoundHit || wk.mm.BoundHit()
	}
	if witness != nil {
		res.WitnessTrace = unfuse(store.Trace(witnessID))
		explore.Concretize(res.WitnessTrace, nT)
	}
	return res, nil
}

// proj tags a successor reached by a program step, whose projection is
// filed (pass 1) or probed (pass 2) when it is new.
const proj uint8 = 1

// episodeRoot flags a pass-2 frontier id that is expanded by the stores
// that open its episodes. Store ids stay below 1<<37.
const episodeRoot = int64(1) << 62

// unfuse splits every fused step of a trace into the buffered store and
// the flush it stands for; the flush carries the fused step's Perm.
func unfuse(trace []explore.Step) []explore.Step {
	out := trace[:0:0]
	for _, st := range trace {
		if st.Internal != explore.IntFused {
			out = append(out, st)
			continue
		}
		out = append(out,
			explore.Step{Tid: st.Tid, Lab: st.Lab},
			explore.Step{Tid: st.Tid, Internal: explore.IntFlush, Perm: st.Perm})
	}
	return out
}
