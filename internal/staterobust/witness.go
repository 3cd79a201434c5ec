package staterobust

import (
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
// replay therefore advances one program state and a *set* of candidate
// memory states: at each step every candidate is expanded by every machine
// transition matching the recorded label (the same enumeration checkWeakRA
// uses, with the same headroom and canonicalization, so feasibility here
// means feasibility there). An empty candidate set means the trace is
// infeasible — the reported run cannot happen.
//
// The candidate set can blow up on write-heavy traces (every write
// multiplies each candidate by up to headroom slots before dedup), so the
// replay carries a work budget derived from lim and gives up with ErrBound
// rather than deciding — a skipped validation, never a wrong one.
func ReplayWitness(program *lang.Program, trace []explore.Step, sra bool, lim Limits) error {
	scSet, err := ReachableSC(program, lim)
	if err != nil {
		return err
	}
	p := prog.New(program)
	headroom := RAHeadroom(program, lim)
	gapCap := headroom + 1

	ps := p.InitStateRaw()
	cands := []*memra.State{memra.New(program.NumLocs(), program.NumThreads())}
	var msgs []memra.Msg
	var slots []memra.Time
	work := 0
	budget := lim.StateBound()
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
		lab := st.Lab
		if lab.Loc != op.Loc {
			return fmt.Errorf("step %d: label on x%d but the pending operation is on x%d", i, lab.Loc, op.Loc)
		}
		tid := lang.Tid(t)
		next := map[string]*memra.State{}
		add := func(m *memra.State) {
			work++
			m.Canonicalize(gapCap)
			k := string(m.Encode(nil))
			if _, ok := next[k]; !ok {
				next[k] = m
			}
		}
		for _, m := range cands {
			switch op.Kind {
			case prog.OpWrite:
				if lab.Typ != lang.LWrite || lab.VW != op.WVal {
					return fmt.Errorf("step %d: label %v does not match a write of %d", i, lab, op.WVal)
				}
				if sra {
					slots = append(slots[:0], m.WriteSlotSRA(op.Loc))
				} else {
					slots = m.AppendWriteSlots(slots[:0], tid, op.Loc, headroom)
				}
				for _, slot := range slots {
					nm := m.Clone()
					nm.Write(tid, op.Loc, op.WVal, slot)
					add(nm)
				}
			case prog.OpRead, prog.OpWait:
				if lab.Typ != lang.LRead {
					return fmt.Errorf("step %d: label %v does not match a read", i, lab)
				}
				if op.Kind == prog.OpWait && lab.VR != op.WVal {
					return fmt.Errorf("step %d: wait(%d) cannot read %d", i, op.WVal, lab.VR)
				}
				msgs = m.AppendReadCandidates(msgs[:0], tid, op.Loc)
				for _, msg := range msgs {
					if msg.Val != lab.VR {
						continue
					}
					nm := m.Clone()
					nm.Read(tid, msg)
					add(nm)
				}
			case prog.OpFADD, prog.OpXCHG, prog.OpCAS, prog.OpBCAS:
				switch lab.Typ {
				case lang.LRMW:
					switch op.Kind {
					case prog.OpFADD:
						if want := lang.Val((int(lab.VR) + int(op.Add)) % program.ValCount); lab.VW != want {
							return fmt.Errorf("step %d: FADD label %v writes %d, expected %d", i, lab, lab.VW, want)
						}
					case prog.OpXCHG:
						if lab.VW != op.New {
							return fmt.Errorf("step %d: XCHG label %v writes %d, expected %d", i, lab, lab.VW, op.New)
						}
					case prog.OpCAS, prog.OpBCAS:
						if lab.VR != op.Exp || lab.VW != op.New {
							return fmt.Errorf("step %d: CAS label %v does not match CAS(%d→%d)", i, lab, op.Exp, op.New)
						}
					}
					if sra {
						msgs = m.AppendRMWCandidatesSRA(msgs[:0], tid, op.Loc)
					} else {
						msgs = m.AppendRMWCandidates(msgs[:0], tid, op.Loc)
					}
					for _, msg := range msgs {
						if msg.Val != lab.VR {
							continue
						}
						nm := m.Clone()
						nm.RMW(tid, msg, lab.VW)
						add(nm)
					}
				case lang.LRead:
					// Only a failed CAS reads without writing.
					if op.Kind != prog.OpCAS {
						return fmt.Errorf("step %d: plain-read label %v on a %v operation", i, lab, op.Kind)
					}
					if lab.VR == op.Exp {
						return fmt.Errorf("step %d: failed CAS cannot read the expected value %d", i, op.Exp)
					}
					msgs = m.AppendReadCandidates(msgs[:0], tid, op.Loc)
					for _, msg := range msgs {
						if msg.Val != lab.VR {
							continue
						}
						nm := m.Clone()
						nm.Read(tid, msg)
						add(nm)
					}
				default:
					return fmt.Errorf("step %d: label %v does not match an RMW operation", i, lab)
				}
			default:
				return fmt.Errorf("step %d: thread %d has no memory operation pending", i, t)
			}
		}
		if len(next) == 0 {
			return fmt.Errorf("step %d: no reachable RA memory supports label %v (infeasible trace)", i, lab)
		}
		if work > budget {
			return fmt.Errorf("%w (replay candidate set at step %d)", ErrBound, i)
		}
		cands = cands[:0]
		for _, m := range next {
			cands = append(cands, m)
		}
		ps.Threads[t] = th.ApplyRaw(ts, lab)
	}
	if scSet.Has(NewProjector(p, lim).Key(p.EncodeStateRaw(nil, ps))) {
		return fmt.Errorf("final program state is SC-reachable — not a robustness witness")
	}
	return nil
}
