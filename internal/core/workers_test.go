package core

import (
	"testing"

	"repro/internal/lang"
)

// CheckWorkers runs Verify on p under opts at 1, 2 and 4 workers and
// fails t unless every run agrees with the one-worker run on the
// verdict, States, AmpleHits, the violation or assertion failure and the
// trace length, and unless every non-robust trace replays on a Stepper to
// the reported finding. It returns the one-worker verdict. The parity
// tests of both test packages share it.
func CheckWorkers(t *testing.T, name string, p *lang.Program, opts Options) *Verdict {
	t.Helper()
	var ref *Verdict
	for _, w := range []int{1, 2, 4} {
		opts.Workers = w
		v, err := Verify(p, opts)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, w, err)
		}
		if !v.Robust {
			replayWitness(t, name, p, opts, v)
		}
		if ref == nil {
			ref = v
			continue
		}
		if v.Robust != ref.Robust || v.States != ref.States || v.AmpleHits != ref.AmpleHits {
			t.Errorf("%s workers=%d: robust=%v states=%d ample=%d, one worker: robust=%v states=%d ample=%d",
				name, w, v.Robust, v.States, v.AmpleHits, ref.Robust, ref.States, ref.AmpleHits)
		}
		if got, want := findingOf(v), findingOf(ref); got != want || len(v.Trace) != len(ref.Trace) {
			t.Errorf("%s workers=%d: finding %+v with a %d-step trace, one worker: %+v with %d steps",
				name, w, got, len(v.Trace), want, len(ref.Trace))
		}
	}
	return ref
}

// findingOf returns the first violation or the assertion failure of v as a
// comparable value.
func findingOf(v *Verdict) any {
	switch {
	case len(v.Violations) > 0:
		return *v.Violations[0]
	case v.AssertFail != nil:
		return *v.AssertFail
	}
	return nil
}

// replayWitness replays v's trace on a Stepper: every step must be
// SC-enabled with the trace's label, and the run must end in the
// reported violation or fail the reported assertion on its last step.
// Under symmetry reduction the replayed state's first violation may name
// another thread of the class, so only its presence is checked there.
func replayWitness(t *testing.T, name string, p *lang.Program, opts Options, v *Verdict) {
	t.Helper()
	st, err := NewStepper(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fail := st.Reset(); fail != nil {
		if v.AssertFail == nil || *fail != *v.AssertFail {
			t.Errorf("%s: the initial state fails %+v, verdict reports %+v", name, fail, v.AssertFail)
		}
		return
	}
	for i, s := range v.Trace {
		lab, ok, fail := st.Step(s.Tid)
		if !ok || lab != s.Lab {
			t.Fatalf("%s workers=%d step %d: label %v ok=%v, trace has %v", name, opts.Workers, i, lab, ok, s.Lab)
		}
		if fail != nil {
			if i != len(v.Trace)-1 || v.AssertFail == nil || *fail != *v.AssertFail {
				t.Errorf("%s workers=%d step %d: assertion %+v fails, verdict reports %+v", name, opts.Workers, i, fail, v.AssertFail)
			}
			return
		}
	}
	viol := st.Violation()
	switch {
	case v.AssertFail != nil:
		t.Errorf("%s workers=%d: the trace ends without the assertion failure %+v", name, opts.Workers, v.AssertFail)
	case viol == nil:
		t.Errorf("%s workers=%d: the replayed trace ends without a violation", name, opts.Workers)
	case !opts.Reduce && *viol != *v.Violations[0]:
		t.Errorf("%s workers=%d: the replay ends in %+v, verdict reports %+v", name, opts.Workers, *viol, *v.Violations[0])
	}
}

// CheckWorkersSC is CheckWorkers for VerifySC, which reports no trace.
func CheckWorkersSC(t *testing.T, name string, p *lang.Program, opts Options) *SCVerdict {
	t.Helper()
	var ref *SCVerdict
	for _, w := range []int{1, 2, 4} {
		opts.Workers = w
		v, err := VerifySC(p, opts)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, w, err)
		}
		if ref == nil {
			ref = v
			continue
		}
		if v.States != ref.States || v.AmpleHits != ref.AmpleHits || (v.AssertFail == nil) != (ref.AssertFail == nil) ||
			v.AssertFail != nil && *v.AssertFail != *ref.AssertFail {
			t.Errorf("%s workers=%d: SC states=%d ample=%d fail=%v, one worker: states=%d ample=%d fail=%v",
				name, w, v.States, v.AmpleHits, v.AssertFail, ref.States, ref.AmpleHits, ref.AssertFail)
		}
	}
	return ref
}
