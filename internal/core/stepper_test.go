package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/litmus"
	"repro/internal/parser"
)

// TestStepperReplaysWitness replays every non-robust corpus verdict's
// trace on a Stepper, sequential and parallel, with and without
// reduction: each step must be SC-enabled with the trace's label, the
// last state must exhibit a violation, and after a Reset the trace must
// replay the same way.
func TestStepperReplaysWitness(t *testing.T) {
	for _, e := range litmus.All() {
		if e.RobustRA || e.Big {
			continue
		}
		p := e.Program()
		for _, opts := range []core.Options{
			{AbstractVals: true, Workers: 1},
			{AbstractVals: true, Workers: 2, Reduce: true, StaticPrune: true},
		} {
			v, err := core.Verify(p, opts)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if v.Robust || v.AssertFail != nil {
				t.Fatalf("%s: want a violation verdict", e.Name)
			}
			st, err := core.NewStepper(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ {
				if st.Reset() != nil {
					t.Fatalf("%s: initial state fails an assertion", e.Name)
				}
				for i, s := range v.Trace {
					lab, ok, fail := st.Step(s.Tid)
					if !ok || fail != nil || lab != s.Lab {
						t.Fatalf("%s (workers %d) step %d: label %v ok=%v fail=%v, trace has %v",
							e.Name, opts.Workers, i, lab, ok, fail, s.Lab)
					}
				}
				if st.Violation() == nil {
					t.Fatalf("%s (workers %d): the replayed trace ends without a violation", e.Name, opts.Workers)
				}
			}
		}
	}
}

// TestStepperBlocked: a terminated thread and a blocked wait both refuse
// to step and leave the state unchanged.
func TestStepperBlocked(t *testing.T) {
	p := parser.MustParse(`
program blocked
vals 2
locs x
thread a
  wait(x = 1)
end
thread b
  x := 1
end
`)
	st, err := core.NewStepper(p, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st.Step(0); ok {
		t.Fatal("wait(x = 1) stepped with x = 0")
	}
	if _, ok, _ := st.Step(1); !ok {
		t.Fatal("the write did not step")
	}
	if _, ok, _ := st.Step(1); ok {
		t.Fatal("a terminated thread stepped")
	}
	if _, ok, _ := st.Step(0); !ok {
		t.Fatal("wait(x = 1) did not step with x = 1")
	}
}
