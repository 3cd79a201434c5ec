package diffcheck

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/lang"
)

// replaySC validates a non-robust core.Verify verdict by replaying its
// trace on a core.Stepper, whose §5 monitor is built exactly as the
// verifier builds its own (abstract selects CriticalVals vs
// FullCriticalVals, sra the monitor's model). The trace must be a real SC
// run — each step's label must be the unique SC label of the thread's
// pending operation — and must end in a state exhibiting a violation: a
// Theorem 5.3 condition on some thread's pending operation, a
// Definition 6.1 race, or (for assertion verdicts) a failing assert on
// the final step. Returns nil when the witness checks out.
func replaySC(program *lang.Program, v *core.Verdict, abstract, sra bool) error {
	opts := core.Options{AbstractVals: abstract}
	if sra {
		opts.Model = core.ModelSRA
	}
	st, err := core.NewStepper(program, opts)
	if err != nil {
		return err
	}
	if st.Reset() != nil {
		if v.AssertFail == nil {
			return fmt.Errorf("initial state fails an assertion but the verdict reports none")
		}
		return nil
	}
	for i, s := range v.Trace {
		if s.Internal != explore.IntNone {
			return fmt.Errorf("step %d: internal step in an SC trace (states there are ε-closed)", i)
		}
		if int(s.Tid) >= program.NumThreads() {
			return fmt.Errorf("step %d: thread %d out of range", i, s.Tid)
		}
		label, ok, afail := st.Step(s.Tid)
		if !ok {
			return fmt.Errorf("step %d: thread %d has terminated or is blocked under SC", i, s.Tid)
		}
		if label != s.Lab {
			return fmt.Errorf("step %d: SC forces label %v, trace claims %v", i, label, s.Lab)
		}
		if afail != nil {
			if i != len(v.Trace)-1 {
				return fmt.Errorf("step %d: assertion fails before the end of the trace", i)
			}
			if v.AssertFail == nil {
				return fmt.Errorf("final step fails an assertion but the verdict reports none")
			}
			return nil
		}
	}
	if v.AssertFail != nil {
		return fmt.Errorf("verdict reports a failed assertion but the trace replays without one")
	}
	if st.Violation() == nil {
		return fmt.Errorf("trace replays under SC but the final state exhibits no violation")
	}
	return nil
}
