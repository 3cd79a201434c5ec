package core_test

import (
	"errors"
	"slices"
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

// TestStateRobustParallelParity checks that the RA state-robustness
// oracle answers the same at 1, 2 and 4 workers, non-robust rows
// included: its weak product is explored on one goroutine, and only the
// SC side (ReachableSC) runs on the workers. The non-robust rows' counts
// and witness lengths are pinned, and their witnesses must be equal.
func TestStateRobustParallelParity(t *testing.T) {
	type pin struct{ explored, weak, witness int }
	rows := []struct {
		name string
		pin  *pin // nil: robust
	}{
		{"SB", &pin{98, 11, 4}},
		{"MP", nil},
		{"2RMW", nil},
		{"barrier", nil},
		{"dekker-sc", &pin{430, 13, 4}},
		{"peterson-sc", &pin{2244, 21, 6}},
		{"IRIW", &pin{401, 69, 6}},
		{"2+2W", &pin{1268, 19, 6}},
		{"peterson-tso", &pin{17469, 64, 16}},
	}
	for _, row := range rows {
		e, err := litmus.Get(row.name)
		if err != nil {
			t.Fatal(err)
		}
		p := e.Program()
		var first *staterobust.Result
		for _, workers := range []int{1, 2, 4} {
			res, err := staterobust.CheckRA(p, staterobust.Limits{MaxStates: 3_000_000, Workers: workers})
			if err != nil {
				t.Fatalf("%s, %d workers: %v", row.name, workers, err)
			}
			if res.Robust != (row.pin == nil) {
				t.Errorf("%s, %d workers: Robust=%v", row.name, workers, res.Robust)
				continue
			}
			if row.pin != nil {
				if got := (pin{res.Explored, res.WeakStates, len(res.WitnessTrace)}); got != *row.pin {
					t.Errorf("%s, %d workers: explored, weak states, witness length = %v, want %v", row.name, workers, got, *row.pin)
				}
			}
			if first == nil {
				first = res
			} else if res.Explored != first.Explored || res.WeakStates != first.WeakStates || res.SCStates != first.SCStates ||
				!slices.Equal(res.WitnessTrace, first.WitnessTrace) {
				t.Errorf("%s, %d workers: explored %d, weak %d, sc %d, witness %v; 1 worker: %d, %d, %d, %v", row.name, workers,
					res.Explored, res.WeakStates, res.SCStates, res.WitnessTrace, first.Explored, first.WeakStates, first.SCStates, first.WitnessTrace)
			}
		}
	}
}
