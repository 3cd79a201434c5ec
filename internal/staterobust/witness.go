package staterobust

import (
	"encoding/binary"
	"fmt"

	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/memra"
	"repro/internal/prog"
)

// ReplayWitness validates a WitnessTrace returned by CheckRA (sra false)
// or CheckSRA (sra true): the trace must be a feasible run of the §3
// timestamp machine, and the program state it ends in must not be
// SC-reachable. Returns nil when the witness checks out; ErrBound if the
// SC exploration needed for the final check exceeds lim.
//
// A trace records thread ids and labels but not timestamps, and the
// machine is not label-deterministic — a write label says nothing about
// the slot picked, a read label may be served by several messages with the
// same value. Program state, by contrast, IS label-deterministic. The
// replay therefore first advances the program state through the whole
// trace, and then searches depth-first for one run of the memory with the
// trace's labels: from each memory state it tries every machine
// transition whose label is the recorded one — memra.Machine.AppendSteps
// with the explorer's headroom and canonicalization, so feasibility here
// is feasibility there by construction. A breadth-first set of candidate
// memories would multiply by up to headroom slots per write; the search
// usually follows the explorer's own choices to the end at once. When no
// run exists, the trace is infeasible — the reported run cannot happen.
//
// The search carries a budget of lim's state bound on the memory states
// it visits and gives up with ErrBound rather than deciding — a skipped
// validation, never a wrong one.
func ReplayWitness(program *lang.Program, trace []explore.Step, sra bool, lim Limits) error {
	scSet, err := ReachableSC(program, lim)
	if err != nil {
		return err
	}
	p := prog.New(program)
	type memStep struct {
		i   int // index in trace
		tid lang.Tid
		op  prog.MemOp
	}
	var steps []memStep
	ps := p.InitStateRaw()
	for i, st := range trace {
		t := int(st.Tid)
		if t < 0 || t >= len(p.Threads) {
			return fmt.Errorf("step %d: thread %d out of range", i, t)
		}
		th := &p.Threads[t]
		ts := ps.Threads[t]
		if th.Terminated(ts) {
			return fmt.Errorf("step %d: thread %d has terminated", i, t)
		}
		if st.Internal == explore.IntEps {
			if !th.AtEps(ts) {
				return fmt.Errorf("step %d: ε step but thread %d is at a memory operation", i, t)
			}
			nts, afail := th.StepEps(ts)
			if afail != nil {
				return fmt.Errorf("step %d: ε step fails an assertion (such states have no successors)", i)
			}
			ps.Threads[t] = nts
			continue
		}
		if st.Internal != explore.IntNone {
			return fmt.Errorf("step %d: unexpected internal tag %d in an RA trace", i, st.Internal)
		}
		if th.AtEps(ts) {
			return fmt.Errorf("step %d: memory step but thread %d is at a local instruction", i, t)
		}
		op := th.Op(ts)
		if lab, ok := prog.SCLabel(op, st.Lab.VR, program.ValCount); !ok || lab != st.Lab {
			return fmt.Errorf("step %d: label %v is no label of thread %d's pending %v", i, st.Lab, t, op.Kind)
		}
		steps = append(steps, memStep{i, st.Tid, op})
		ps.Threads[t] = th.ApplyRaw(ts, st.Lab)
	}

	mc := memra.Machine{SRA: sra, Headroom: RAHeadroom(program, lim), ValCount: program.ValCount}
	type node struct {
		k int // memory steps taken
		m *memra.State
	}
	stack := []node{{0, memra.New(program.NumLocs(), program.NumThreads())}}
	seen := map[string]bool{}
	deepest := 0
	var trans []memra.Trans
	for {
		if len(stack) == 0 {
			s := steps[deepest]
			return fmt.Errorf("step %d: no reachable RA memory supports label %v (infeasible trace)", s.i, trace[s.i].Lab)
		}
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.k == len(steps) {
			break
		}
		if len(seen) > lim.StateBound() {
			return fmt.Errorf("%w (replay search at step %d)", explore.ErrBound, steps[n.k].i)
		}
		s := steps[n.k]
		trans = mc.AppendSteps(trans[:0], n.m, s.tid, s.op)
		for _, tr := range trans {
			if tr.Lab != trace[s.i].Lab {
				continue
			}
			nm := n.m.Clone()
			nm.Apply(s.tid, tr)
			mc.Canon(nm)
			k := string(nm.Encode(binary.AppendUvarint(nil, uint64(n.k+1))))
			if !seen[k] {
				seen[k] = true
				deepest = max(deepest, n.k+1)
				stack = append(stack, node{n.k + 1, nm})
			}
		}
	}
	if scSet.Has(NewProjector(p, lim).Key(p.EncodeStateRaw(nil, ps))) {
		return fmt.Errorf("final program state is SC-reachable — not a robustness witness")
	}
	return nil
}
