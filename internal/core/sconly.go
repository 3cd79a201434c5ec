package core

import (
	"time"

	"repro/internal/lang"
	"repro/internal/prog"
)

// SCVerdict is the result of a plain SC exploration.
type SCVerdict struct {
	// AssertFail reports a failed user assertion, if any: the least of the
	// level the search stopped on (see search), its thread named in the
	// original program under symmetry.
	AssertFail *prog.AssertFailure
	// States is the number of distinct ⟨program, SC memory⟩ states.
	States int
	// Elapsed is the wall-clock exploration time.
	Elapsed time.Duration
	// AmpleHits, SleepSkips and SymmetryFolds mirror Verdict's reduction
	// counters; all 0 unless Options.Reduce.
	AmpleHits, SleepSkips, SymmetryFolds int64
}

// VerifySC explores the program under plain (uninstrumented) sequential
// consistency, checking only user assertions. This is the paper's "SC"
// comparison column in Figure 7: the cost of ordinary SC model checking,
// against which the robustness instrumentation's overhead is measured.
// It runs on Verify's engine with the plain SC memory in place of the
// monitor, so Options mean the same (Model, AbstractVals and StaticPrune
// aside).
func VerifySC(program *lang.Program, opts Options) (*SCVerdict, error) {
	start := time.Now()
	if err := program.Validate(); err != nil {
		return nil, err
	}
	v := &verifier{program: program, p: prog.New(program)}
	verdict := &SCVerdict{}
	ps0, fail := v.p.InitState()
	if fail != nil {
		verdict.AssertFail = fail
	} else {
		s, err := v.explore(ps0, opts)
		if err != nil {
			return nil, err
		}
		verdict.States = s.store.Len()
		verdict.AmpleHits, verdict.SleepSkips, verdict.SymmetryFolds = s.counters()
		if s.found != nil {
			_, _, verdict.AssertFail = s.witness()
		}
		s.release()
	}
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		return nil, canceled(opts.Ctx)
	}
	verdict.Elapsed = time.Since(start)
	return verdict, nil
}
