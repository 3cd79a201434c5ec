package staterobust_test

import (
	"testing"

	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/staterobust"
)

// TestRALitmusStateRobustness cross-validates the §3 litmus discussion
// against the operational RA machine: the annotated weak outcomes must be
// reachable (state robustness fails) exactly where the paper says, and —
// the point of §4 — the two "vacuously robust" programs (SB with zero
// writes, 2+2W without the final reads) are state robust even though they
// are not execution-graph robust.
func TestRALitmusStateRobustness(t *testing.T) {
	expect := map[string]bool{
		"SB":            false,
		"MP":            true,
		"IRIW":          false,
		"2+2W":          false,
		"2+2W-nor":      true, // vacuous: no reads observe the mo divergence
		"SB-zero":       true, // vacuous: only the initial value is ever written
		"2RMW":          true,
		"SB+RMWs":       true,
		"SB+RMWs-split": false,
		"BAR-loop":      false, // both threads spinning on stale zeroes (§2.3)
		"barrier":       true,
		"dekker-sc":     false,
		"peterson-sc":   false,
	}
	for name, want := range expect {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, err := litmus.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := staterobust.CheckRA(e.Program(), staterobust.Limits{MaxStates: 3_000_000})
			if err != nil {
				t.Fatalf("CheckRA: %v", err)
			}
			if res.Robust != want {
				t.Errorf("RA state robustness = %v, want %v (weak %d, sc %d)",
					res.Robust, want, res.WeakStates, res.SCStates)
			}
			// Sanity: Lemma 3.7 — SC runs are RA runs, so the weak state
			// set must contain the SC one.
			if res.Robust && res.WeakStates != res.SCStates {
				t.Errorf("robust but weak states %d != sc states %d", res.WeakStates, res.SCStates)
			}
			if res.WeakStates != 0 && res.WeakStates < res.SCStates && res.Robust {
				t.Errorf("RA explorer reached fewer states than SC")
			}
		})
	}
}

// TestSCSubsetOfWeak checks Lemma 3.7 concretely on a few programs: every
// SC-reachable program state is reachable under both RA and TSO (the
// explorers agree on the SC set by construction, so this checks that the
// weak explorers don't under-approximate).
func TestSCSubsetOfWeak(t *testing.T) {
	// Robust programs only: on a violation the explorers return early with
	// a partial weak-state count.
	for _, name := range []string{"MP", "2RMW", "barrier", "SB-zero"} {
		e, err := litmus.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		p := e.Program()
		res, err := staterobust.CheckRA(p, staterobust.Limits{MaxStates: 2_000_000})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.WeakStates < res.SCStates {
			t.Errorf("%s: RA reached %d states < SC's %d", name, res.WeakStates, res.SCStates)
		}
		rt, err := model.Check(model.ModeStateTSO, p, staterobust.Limits{MaxStates: 2_000_000})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rt.Robust && rt.WeakStates < rt.SCStates {
			t.Errorf("%s: TSO reached %d states < SC's %d", name, rt.WeakStates, rt.SCStates)
		}
	}
}

// TestReduceSymmetryFold checks Limits.Reduce: on programs with
// interchangeable threads the verdict must be unchanged (both projection
// sets are closed under the class permutations) while the canonical state
// counts shrink; on asymmetric programs the counts are untouched.
func TestReduceSymmetryFold(t *testing.T) {
	for _, tc := range []struct {
		name      string
		symmetric bool
	}{
		{"dcl", true},  // two identical double-checked-init threads
		{"2RMW", true}, // two identical fetch-and-adds
		{"SB", false},  // distinct stores
		{"MP", false},
		{"peterson-sc", false},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			e, err := litmus.Get(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			p := e.Program()
			plain, err := staterobust.CheckRA(p, staterobust.Limits{MaxStates: 3_000_000})
			if err != nil {
				t.Fatalf("CheckRA: %v", err)
			}
			red, err := staterobust.CheckRA(p, staterobust.Limits{MaxStates: 3_000_000, Reduce: true})
			if err != nil {
				t.Fatalf("CheckRA(reduce): %v", err)
			}
			if red.Robust != plain.Robust {
				t.Errorf("reduced verdict = %v, plain = %v", red.Robust, plain.Robust)
			}
			if tc.symmetric {
				if plain.Robust && red.WeakStates >= plain.WeakStates {
					t.Errorf("expected canonical fold: weak %d vs plain %d", red.WeakStates, plain.WeakStates)
				}
			} else if red.SCStates != plain.SCStates || (plain.Robust && red.WeakStates != plain.WeakStates) {
				t.Errorf("asymmetric program folded: sc %d/%d weak %d/%d",
					red.SCStates, plain.SCStates, red.WeakStates, plain.WeakStates)
			}
		})
	}
}
