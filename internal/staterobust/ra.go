package staterobust

import (
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/memra"
	"repro/internal/prog"
)

// RAHeadroom returns the write-slot headroom of the RA/SRA machines for
// the program: lim.RAHeadroom when set, else two more than the number of
// write instructions (writes and RMWs), at most 12. Below the cap the
// derived value is exact for programs whose runs execute each write
// instruction at most once (a canonical gap must absorb every write still
// to come, see memra's package comment); for loopy programs the state
// bound guards the exploration, and the cap keeps branching bounded. Every
// user of the RA machine derives its headroom here, so that the model
// adapters, the state checkers and diffcheck's fenced mutants agree.
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
	return min(n, 12)
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

// raBatch is the size of exploreRA's frontier batches.
const raBatch = 64

// exploreRA explores the product of the program with the RA (sra: SRA)
// timestamp machine and returns the set of program-state projections it
// reaches (Projector.Key). Given an SC-reachable set scSet, it stops at
// the first projection outside it and reports it as the Result's
// witness; with scSet nil it explores everything.
//
// It is a sequential oracle, not a decider (the machine is
// infinite-state), so it runs on one goroutine over an explore.Store,
// whatever lim.Workers says; its results do not depend on it. The
// frontier is a stack of batches of up to raBatch states: the loop
// expands the newest batch in order, filing the new successors into
// fresh batches on top of the stack. Product states ⟨program state, RA
// memory⟩ travel with their ids and are drawn from free lists (CopyFrom
// into recycled storage) rather than cloned: a duplicate successor's
// states, and an expanded node's, go back to them.
func exploreRA(program *lang.Program, lim Limits, sra bool, scSet *explore.Set) (*Result, *explore.Set, error) {
	p := prog.New(program)
	res := &Result{Robust: true}
	if scSet != nil {
		res.SCStates = scSet.Len()
	}
	mc := memra.Machine{SRA: sra, Headroom: RAHeadroom(program, lim), ValCount: program.ValCount}
	store, weak, pj := explore.NewStore(), explore.NewSet(), NewProjector(p, lim)

	type node struct {
		id int32
		ps prog.State
		m  *memra.State
	}
	var (
		buf    []byte
		trans  []memra.Trans
		psPool []prog.State
		mPool  []*memra.State
		stack  [][]node // the frontier's batches, newest last
		free   [][]node // retired batch buffers
		out    []node   // the batch being filled
	)
	takePS := func(from prog.State) prog.State {
		if n := len(psPool); n > 0 {
			ps := psPool[n-1]
			psPool = psPool[:n-1]
			ps.CopyFrom(from)
			return ps
		}
		return from.Clone()
	}
	takeM := func(from *memra.State) *memra.State {
		if n := len(mPool); n > 0 {
			m := mPool[n-1]
			mPool = mPool[:n-1]
			m.CopyFrom(from)
			return m
		}
		return from.Clone()
	}
	newBatch := func() []node {
		if n := len(free); n > 0 {
			b := free[n-1]
			free = free[:n-1]
			return b
		}
		return make([]node, 0, raBatch)
	}
	push := func(n node) {
		if out == nil {
			out = newBatch()
		}
		out = append(out, n)
		if len(out) == raBatch {
			stack, out = append(stack, out), nil
		}
	}
	// add interns ⟨ps, m⟩, reached from parent by step, and reports
	// whether it is new. A new state's projection joins weak, and when it
	// is not SC-reachable the state is the witness.
	witness := int32(-1)
	add := func(ps prog.State, m *memra.State, parent int32, step explore.Step) (int32, bool) {
		buf = m.Encode(p.EncodeStateRaw(buf[:0], ps))
		id, isNew := store.AddBytes(buf, parent, step)
		if !isNew {
			return id, false
		}
		pk := pj.Key(buf)
		if _, isNew := weak.Add(pk); isNew && scSet != nil && !scSet.Has(pk) {
			witness = id
		}
		return id, true
	}

	ps0 := p.InitStateRaw()
	m0 := memra.New(program.NumLocs(), program.NumThreads())
	root, _ := add(ps0, m0, -1, explore.Step{})
	push(node{root, ps0, m0})
	// expand files the successors of n, stopping at the witness.
	expand := func(n node) {
		for t := range p.Threads {
			th := &p.Threads[t]
			ts := n.ps.Threads[t]
			tid := lang.Tid(t)
			if th.Terminated(ts) {
				continue
			}
			if th.AtEps(ts) {
				nextPS := takePS(n.ps)
				if afail := th.StepEpsInto(ts, &nextPS.Threads[t]); afail != nil {
					psPool = append(psPool, nextPS)
					continue
				}
				id, isNew := add(nextPS, n.m, n.id, explore.Step{Tid: tid, Internal: explore.IntEps})
				switch {
				case !isNew:
					psPool = append(psPool, nextPS)
				case witness >= 0:
					return
				default:
					push(node{id, nextPS, takeM(n.m)})
				}
				continue
			}
			trans = mc.AppendSteps(trans[:0], n.m, tid, th.Op(ts))
			for _, tr := range trans {
				nextM := takeM(n.m)
				nextM.Apply(tid, tr)
				mc.Canon(nextM)
				nextPS := takePS(n.ps)
				th.ApplyRawInto(ts, tr.Lab, &nextPS.Threads[t])
				id, isNew := add(nextPS, nextM, n.id, explore.Step{Tid: tid, Lab: tr.Lab})
				switch {
				case !isNew:
					psPool, mPool = append(psPool, nextPS), append(mPool, nextM)
				case witness >= 0:
					return
				default:
					push(node{id, nextPS, nextM})
				}
			}
		}
		psPool, mPool = append(psPool, n.ps), append(mPool, n.m)
	}
	bound, expanded := false, 0
	for witness < 0 && !bound {
		if out != nil {
			stack, out = append(stack, out), nil
		}
		if len(stack) == 0 || lim.Err() != nil {
			break
		}
		batch := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range batch {
			if bound = store.Len() > lim.StateBound(); bound {
				break
			}
			if expand(n); witness >= 0 {
				break
			}
		}
		// Drop the payload references before the buffer is reused.
		clear(batch)
		free = append(free, batch[:0])
		if expanded += len(batch); lim.Progress != nil && expanded/progressEvery != (expanded-len(batch))/progressEvery {
			lim.Progress(store.Len())
		}
	}
	if err := lim.Err(); err != nil {
		return nil, nil, err
	}
	res.Explored = store.Len()
	res.WeakStates = weak.Len()
	if bound {
		return nil, nil, explore.ErrBound
	}
	if witness >= 0 {
		res.Robust = false
		res.WitnessTrace = store.Trace(witness)
	}
	return res, weak, nil
}
