package staterobust

import (
	"sync"

	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/memra"
	"repro/internal/prog"
)

// RAHeadroom derives the default write-slot headroom for the RA/SRA
// machines (exported for the internal/model adapters, which must
// enumerate exactly checkWeakRA's candidates): one more than the
// number of write instructions in the program (every write instruction can
// execute at most once per... conservatively, this is exact for programs
// whose runs perform at most that many writes per location; for loopy
// programs the exploration is additionally guarded by the state bound).
func RAHeadroom(program *lang.Program, lim Limits) int {
	if lim.RAHeadroom > 0 {
		return lim.RAHeadroom
	}
	n := 2
	for ti := range program.Threads {
		for ii := range program.Threads[ti].Insts {
			switch program.Threads[ti].Insts[ii].Kind {
			case lang.IWrite, lang.IFADD, lang.ICAS, lang.IBCAS, lang.IXCHG:
				n++
			}
		}
	}
	if n > 12 {
		n = 12 // keep branching bounded; the state bound guards precision
	}
	return n
}

// CheckRA decides state robustness of the program against RA by exploring
// the product of the program with the §3 timestamp machine
// (timestamp-canonicalized, see memra). Intended for litmus-sized
// programs: it exists to cross-validate the SCM-based decision procedure,
// not to replace it — that reversal of roles is exactly the paper's point
// (the RA machine is infinite-state in general; SCM is finite always).
func CheckRA(program *lang.Program, lim Limits) (*Result, error) {
	return checkWeakRA(program, lim, false)
}

// CheckSRA is CheckRA for the SRA model (writes and RMW-writes must pick
// globally maximal timestamps; see memra.WriteSlotSRA). SRA sits between
// RA and SC: per the paper's Example 3.4, 2+2W is robust against SRA but
// not against RA.
func CheckSRA(program *lang.Program, lim Limits) (*Result, error) {
	return checkWeakRA(program, lim, true)
}

// raScratch is the per-worker expansion state of checkWeakRA: the encode
// buffer, the transition buffer for memra.Machine.AppendSteps, and
// free lists of product states. Successor states are drawn from the pools
// (CopyFrom into recycled storage) instead of cloned, and return to the
// expanding worker's pool when the store reports a duplicate or when their
// node has been fully expanded; a state pushed by one worker and expanded
// by another simply migrates pools, with the engine's batch hand-off lock
// providing the happens-before edge.
type raScratch struct {
	buf    []byte
	trans  []memra.Trans
	psPool []prog.State
	mPool  []*memra.State
	pj     *Projector
}

func (ws *raScratch) takePS(from prog.State) prog.State {
	if n := len(ws.psPool); n > 0 {
		ps := ws.psPool[n-1]
		ws.psPool = ws.psPool[:n-1]
		ps.CopyFrom(from)
		return ps
	}
	return from.Clone()
}

func (ws *raScratch) takeM(from *memra.State) *memra.State {
	if n := len(ws.mPool); n > 0 {
		m := ws.mPool[n-1]
		ws.mPool = ws.mPool[:n-1]
		m.CopyFrom(from)
		return m
	}
	return from.Clone()
}

// checkWeakRA compares the program states reachable under the RA (sra:
// SRA) timestamp machine against ReachableSC.
func checkWeakRA(program *lang.Program, lim Limits, sra bool) (*Result, error) {
	scSet, err := ReachableSC(program, lim)
	if err != nil {
		return nil, err
	}
	res, _, err := exploreRA(program, lim, sra, scSet)
	return res, err
}

// exploreRA explores the product of the program with the RA (sra: SRA)
// timestamp machine and returns the set of program-state projections it
// reaches (Projector.Key). Given an SC-reachable set scSet, it stops at
// the first projection outside it and reports it as the Result's
// witness; with scSet nil it explores everything.
//
// It runs on the shared parallel engine (explore.RunParallel over an
// explore.Sharded visited set): frontier items carry the decoded product
// state ⟨program state, RA memory⟩, workers share the read-only compiled
// program and SC-reachable set, and the weak program-state set is the
// only mutable shared structure beyond the store (a concurrent
// explore.Set, touched once per new compound state). Each worker folds
// projections under symmetry with its own Projector.
func exploreRA(program *lang.Program, lim Limits, sra bool, scSet *explore.Set) (*Result, *explore.Set, error) {
	p := prog.New(program)
	res := &Result{Robust: true}
	if scSet != nil {
		res.SCStates = scSet.Len()
	}
	mc := memra.Machine{SRA: sra, Headroom: RAHeadroom(program, lim), ValCount: program.ValCount}

	type node struct {
		ps prog.State
		m  *memra.State
	}
	store := explore.NewSharded(false)
	scratches := make([]*raScratch, lim.WorkerCount())
	for w := range scratches {
		scratches[w] = &raScratch{buf: make([]byte, 0, 64), pj: NewProjector(p, lim)}
	}
	key := func(ws *raScratch, ps prog.State, m *memra.State) []byte {
		buf := ws.buf[:0]
		buf = p.EncodeStateRaw(buf, ps)
		buf = m.Encode(buf)
		ws.buf = buf
		return buf
	}

	var (
		mu        sync.Mutex
		weak      = explore.NewSet()
		witnessID = int64(-1)
		bound     bool
	)
	// check records the program state of a newly interned compound state
	// (whose key is still in ws.buf) and reports whether it witnesses
	// non-robustness (reachable weakly but not under SC).
	check := func(ws *raScratch, id int64) bool {
		pk := ws.pj.Key(ws.buf)
		if _, isNew := weak.Add(pk); !isNew || scSet == nil || scSet.Has(pk) {
			return false
		}
		mu.Lock()
		if witnessID < 0 {
			witnessID = id
		}
		mu.Unlock()
		return true
	}

	ps0 := p.InitStateRaw()
	m0 := memra.New(program.NumLocs(), program.NumThreads())
	rootID, _ := store.Add(key(scratches[0], ps0, m0), -1, explore.Step{})
	if check(scratches[0], rootID) {
		res.Robust = false
		res.WitnessTrace = store.Trace(rootID)
		res.Explored = store.Len()
		res.WeakStates = weak.Len()
		return res, weak, nil
	}

	expand := func(w int, it explore.Item[node], push func(explore.Item[node])) bool {
		if store.Len() > lim.StateBound() {
			mu.Lock()
			bound = true
			mu.Unlock()
			return false
		}
		ws := scratches[w]
		n := it.St
		// emit interns the successor reached by thread t taking RA
		// transition tr, applied into pooled states; it reports whether
		// the successor witnesses non-robustness. Duplicates return their
		// states to the worker's free lists.
		emit := func(t int, tr memra.Trans) bool {
			nextM := ws.takeM(n.m)
			nextM.Apply(lang.Tid(t), tr)
			mc.Canon(nextM)
			nextPS := ws.takePS(n.ps)
			p.Threads[t].ApplyRawInto(n.ps.Threads[t], tr.Lab, &nextPS.Threads[t])
			id, isNew := store.Add(key(ws, nextPS, nextM), it.ID, explore.Step{Tid: lang.Tid(t), Lab: tr.Lab})
			if !isNew {
				ws.psPool = append(ws.psPool, nextPS)
				ws.mPool = append(ws.mPool, nextM)
				return false
			}
			if check(ws, id) {
				return true
			}
			push(explore.Item[node]{ID: id, St: node{nextPS, nextM}})
			return false
		}
		for t := range p.Threads {
			th := &p.Threads[t]
			ts := n.ps.Threads[t]
			tid := lang.Tid(t)
			if th.Terminated(ts) {
				continue
			}
			if th.AtEps(ts) {
				nextPS := ws.takePS(n.ps)
				if afail := th.StepEpsInto(ts, &nextPS.Threads[t]); afail != nil {
					ws.psPool = append(ws.psPool, nextPS)
					continue
				}
				id, isNew := store.Add(key(ws, nextPS, n.m), it.ID,
					explore.Step{Tid: tid, Internal: explore.IntEps})
				if !isNew {
					ws.psPool = append(ws.psPool, nextPS)
					continue
				}
				if check(ws, id) {
					return false
				}
				push(explore.Item[node]{ID: id, St: node{nextPS, ws.takeM(n.m)}})
				continue
			}
			ws.trans = mc.AppendSteps(ws.trans[:0], n.m, tid, th.Op(ts))
			for _, tr := range ws.trans {
				if emit(t, tr) {
					return false
				}
			}
		}
		// The node is fully expanded; its states feed the free lists.
		ws.psPool = append(ws.psPool, n.ps)
		ws.mPool = append(ws.mPool, n.m)
		return true
	}

	explore.RunParallelOpts(len(scratches), []explore.Item[node]{{ID: rootID, St: node{ps0, m0}}}, expand, lim.RunOpts(store.Len))
	if err := lim.Err(); err != nil {
		return nil, nil, err
	}
	res.Explored = store.Len()
	res.WeakStates = weak.Len()
	if bound {
		return nil, nil, explore.ErrBound
	}
	if witnessID >= 0 {
		res.Robust = false
		res.WitnessTrace = store.Trace(witnessID)
	}
	return res, weak, nil
}
