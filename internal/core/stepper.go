package core

import (
	"repro/internal/lang"
	"repro/internal/prog"
	"repro/internal/scm"
)

// Stepper runs a program one thread step at a time under instrumented SC:
// the program composed with the §5 monitor, built by the same constructor
// Verify uses, so its Model, critical sets (AbstractVals, and the
// StaticPrune-sharpened masks) and tracked planes match the oracle's for
// the same Options. It replays counterexample schedules without
// exploring: every state it reaches is an SC-reachable state of the
// instrumented machine, so a Violation reported there is one Verify's own
// per-state checks report for the program.
//
// A Stepper is reused across replays with Reset; after construction it
// steps without heap allocation. It reads the program's instructions as
// they are at each step and Reset, so a caller may rewrite an instruction
// in place between replays when the rewrite keeps every location,
// register count and critical value (internal/fence switches repair
// sites this way).
type Stepper struct {
	v        *verifier
	valCount int
	cur, nxt prog.State
	ms       *scm.State
	ops      []prog.MemOp
}

// NewStepper prepares a stepper for the program under opts (only Model,
// AbstractVals and StaticPrune matter).
func NewStepper(program *lang.Program, opts Options) (*Stepper, error) {
	v, err := newVerifier(program, opts)
	if err != nil {
		return nil, err
	}
	s := &Stepper{v: v, valCount: program.ValCount, ms: v.mon.Init()}
	s.cur, s.nxt = v.p.InitStateRaw(), v.p.InitStateRaw()
	s.ops = make([]prog.MemOp, len(v.p.Threads))
	s.Reset()
	return s, nil
}

// Reset returns the stepper to the initial state. It reports the failing
// assertion when the initial ε-closure already fails one; the stepper
// then has no state to step from.
func (s *Stepper) Reset() *prog.AssertFailure {
	if fail := s.v.p.InitStateInto(s.cur); fail != nil {
		return fail
	}
	s.v.mon.Reset(s.ms)
	s.v.p.OpsInto(s.ops, s.cur)
	return nil
}

// Op returns thread t's pending memory operation (Kind prog.OpNone once
// the thread has terminated).
func (s *Stepper) Op(t lang.Tid) prog.MemOp { return s.ops[t] }

// Step performs thread t's pending operation under SC and returns its
// label. ok is false, and the state unchanged, when the thread has
// terminated or its operation is blocked. A failing assertion in the
// step's ε-closure is returned with ok true and leaves the state
// unchanged: there is no SC state after it.
func (s *Stepper) Step(t lang.Tid) (lab lang.Label, ok bool, fail *prog.AssertFailure) {
	op := s.ops[t]
	if op.Kind == prog.OpNone {
		return lang.Label{}, false, nil
	}
	lab, ok = prog.SCLabel(op, s.ms.M[op.Loc], s.valCount)
	if !ok {
		return lab, false, nil
	}
	th := &s.v.p.Threads[t]
	if fail = th.ApplyInto(s.cur.Threads[t], lab, &s.nxt.Threads[t]); fail != nil {
		return lab, true, fail
	}
	s.cur.Threads[t], s.nxt.Threads[t] = s.nxt.Threads[t], s.cur.Threads[t]
	s.v.mon.Step(s.ms, t, lab)
	s.ops[t] = th.Op(s.cur.Threads[t])
	return lab, true, nil
}

// Violation evaluates Verify's per-state checks at the current state and
// returns the first violation, or nil.
func (s *Stepper) Violation() *scm.Violation {
	viol, _ := s.v.violation(s.ms, s.ops)
	return viol
}
