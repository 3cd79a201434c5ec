package core_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/litmus"
	"repro/internal/staterobust"
)

// TestParallelParity checks the engine's determinism claim: on every
// corpus program the verdict, the state count, the reported violation or
// assertion failure and the trace length are the same at 1, 2 and 4
// workers, robust or not — a non-robust run stops once its violation's
// level is complete — and every non-robust trace replays on a Stepper to
// the reported violation.
func TestParallelParity(t *testing.T) {
	for _, e := range litmus.All() {
		if e.Big {
			continue
		}
		core.CheckWorkers(t, e.Name, e.Program(), core.Options{AbstractVals: true})
	}
}

// TestParallelParityHashCompact repeats the parity check with the
// hash-compacted sharded store on a few medium rows, where a digest
// collision or a sharding bug would shrink the count.
func TestParallelParityHashCompact(t *testing.T) {
	for _, name := range []string{"peterson-ra", "ticketlock", "seqlock", "lamport2-ra"} {
		if testing.Short() && name == "lamport2-ra" {
			continue
		}
		e, err := litmus.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		p := e.Program()
		seq, err := core.Verify(p, core.Options{AbstractVals: true, HashCompact: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := core.Verify(p, core.Options{AbstractVals: true, HashCompact: true, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if par.Robust != seq.Robust || par.States != seq.States {
			t.Errorf("%s: parallel hashcompact (robust=%v states=%d) vs sequential (robust=%v states=%d)",
				name, par.Robust, par.States, seq.Robust, seq.States)
		}
	}
}

// TestParallelParitySC checks the plain-SC explorer the same way: the
// state count and the assertion failure, if any, agree at 1, 2 and 4
// workers.
func TestParallelParitySC(t *testing.T) {
	for _, e := range litmus.All() {
		if e.Big {
			continue
		}
		core.CheckWorkersSC(t, e.Name, e.Program(), core.Options{})
	}
}

// TestParallelParityMaxStates checks that the state bound still trips in
// parallel mode. Workers commit past the bound by up to a shard each, so
// only the error, not the exact count, is compared.
func TestParallelParityMaxStates(t *testing.T) {
	e, err := litmus.Get("ticketlock")
	if err != nil {
		t.Fatal(err)
	}
	p := e.Program()
	_, err = core.Verify(p, core.Options{AbstractVals: true, MaxStates: 100, Workers: 4})
	if !errors.Is(err, core.ErrStateBound) {
		t.Fatalf("bounded parallel run: err = %v, want ErrStateBound", err)
	}
}

// TestStateRobustParallelParity checks the ported RA state-robustness
// explorer: worker count must not change any verdict or the weak-state
// census (the weak set is a fixpoint, so it is schedule-independent even
// on non-robust rows that stop at the first witness — the witness search
// only runs after the full SC set is known).
func TestStateRobustParallelParity(t *testing.T) {
	for _, name := range []string{"SB", "MP", "2RMW", "barrier", "peterson-sc"} {
		e, err := litmus.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		p := e.Program()
		lim := staterobust.Limits{MaxStates: 3_000_000}
		lim.Workers = 1
		seq, err := staterobust.CheckRA(p, lim)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lim.Workers = 4
		par, err := staterobust.CheckRA(p, lim)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if par.Robust != seq.Robust {
			t.Errorf("%s: parallel Robust=%v, sequential %v", name, par.Robust, seq.Robust)
		}
		if seq.Robust && par.WeakStates != seq.WeakStates {
			t.Errorf("%s: parallel WeakStates=%d, sequential %d",
				name, par.WeakStates, seq.WeakStates)
		}
	}
}
