package core

import (
	"testing"

	"repro/internal/litmus"
	"repro/internal/parser"
)

// fig7Reduce pins, per Fig. 7 benchmark, the exact-exploration state count
// with partial-order reduction off (full) and on (reduced), both with
// abstract values and a single worker. The reduced counts are deterministic:
// ample sets and symmetry canonicalization are pure functions of the state,
// and each level's sleep masks are the intersection over the level's
// parents, so every level is independent of expansion order (and of worker
// count — see TestReduceParallelParity). A non-robust row counts the states
// through the successors of the level its violation is on.
//
// strictlySmaller marks the rows where at least one of the three techniques
// fires and provably shrinks the state space; the other rows must stay
// bit-identical in verdict and never grow.
var fig7Reduce = []struct {
	name            string
	full            int
	reduced         int
	strictlySmaller bool
}{
	{"barrier", 17, 15, true},
	{"dekker-sc", 21, 17, true},
	{"dekker-tso", 209, 187, true},
	{"peterson-sc", 30, 24, true},
	{"peterson-tso", 42, 33, true},
	{"peterson-ra", 474, 366, true},
	{"peterson-ra-dmitriy", 140, 122, true},
	{"peterson-ra-bratosz", 30, 24, true},
	{"lamport2-sc", 80, 70, true},
	{"lamport2-tso", 164, 142, true},
	{"lamport2-ra", 7466, 5926, true},
	{"lamport2-3-ra", 15980451, 13159657, true},
	{"spinlock", 77, 77, false},
	{"spinlock4", 241, 241, false},
	{"ticketlock", 139, 139, false},
	{"ticketlock4", 1045, 805, true},
	{"seqlock", 9778, 4042, true},
	{"nbw-w-lr-rl", 55272, 6791, true},
	{"rcu", 21775, 4820, true},
	{"rcu-offline", 37610, 21979, true},
	{"cilk-the-wsq-sc", 93, 64, true},
	{"cilk-the-wsq-tso", 416, 287, true},
	{"chase-lev-sc", 841, 266, true},
	{"chase-lev-tso", 1007, 279, true},
	{"chase-lev-ra", 6104, 1869, true},
}

// TestReduceFig7 runs every Fig. 7 benchmark with reduction off and on and
// checks verdict parity against the paper's expected result, the pinned
// state counts, and that reduction never enlarges the explored set.
func TestReduceFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 7 sweep is slow")
	}
	pinned := make(map[string]bool, len(fig7Reduce))
	for _, row := range fig7Reduce {
		pinned[row.name] = true
	}
	for _, e := range litmus.Fig7() {
		if !pinned[e.Name] {
			t.Errorf("Fig. 7 entry %q has no pinned reduction row", e.Name)
		}
	}
	for _, row := range fig7Reduce {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			e, err := litmus.Get(row.name)
			if err != nil {
				t.Fatalf("litmus.Get: %v", err)
			}
			p, err := parser.Parse(e.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			full, err := Verify(p, Options{AbstractVals: true, Workers: 1})
			if err != nil {
				t.Fatalf("Verify(reduce off): %v", err)
			}
			red, err := Verify(p, Options{AbstractVals: true, Workers: 1, Reduce: true})
			if err != nil {
				t.Fatalf("Verify(reduce on): %v", err)
			}
			if full.Robust != e.RobustRA {
				t.Errorf("unreduced verdict = %v, want %v", full.Robust, e.RobustRA)
			}
			if red.Robust != full.Robust {
				t.Errorf("reduced verdict = %v, unreduced = %v", red.Robust, full.Robust)
			}
			if full.States != row.full {
				t.Errorf("unreduced states = %d, want pinned %d", full.States, row.full)
			}
			if red.States != row.reduced {
				t.Errorf("reduced states = %d, want pinned %d", red.States, row.reduced)
			}
			if red.States > full.States {
				t.Errorf("reduction enlarged the state space: %d > %d", red.States, full.States)
			}
			if row.strictlySmaller && red.States >= full.States {
				t.Errorf("expected strict shrink, got %d vs %d", red.States, full.States)
			}
			if full.AmpleHits != 0 || full.SleepSkips != 0 || full.SymmetryFolds != 0 {
				t.Errorf("reduction counters nonzero with Reduce off: %d/%d/%d",
					full.AmpleHits, full.SleepSkips, full.SymmetryFolds)
			}
			if row.strictlySmaller && red.AmpleHits == 0 && red.SleepSkips == 0 && red.SymmetryFolds == 0 {
				t.Errorf("strict shrink but all reduction counters zero")
			}
		})
	}
}

// TestReduceChaseLevBelowPrune pins the headline number: chase-lev-ra with
// reduction must land strictly below the 4224 states the static pre-pass
// alone reaches (prune_test.go), demonstrating the two layers attack
// different redundancy.
func TestReduceChaseLevBelowPrune(t *testing.T) {
	e, err := litmus.Get("chase-lev-ra")
	if err != nil {
		t.Fatalf("litmus.Get: %v", err)
	}
	p, err := parser.Parse(e.Source)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	v, err := Verify(p, Options{AbstractVals: true, Workers: 1, Reduce: true})
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !v.Robust {
		t.Errorf("chase-lev-ra verdict = non-robust, want robust")
	}
	if v.States >= 4224 {
		t.Errorf("reduced states = %d, want < 4224 (static prune alone)", v.States)
	}
}

// TestReduceParallelParity checks that the reduced exploration is
// deterministic across worker counts: ample sets and symmetry depend on
// the state alone, and each level's sleep masks are the intersection over
// the level's parents, so the verdict, States, AmpleHits, the reported
// violation and the trace length agree at 1, 2 and 4 workers.
func TestReduceParallelParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run parity sweep is slow")
	}
	for _, name := range []string{"peterson-ra", "seqlock", "nbw-w-lr-rl", "chase-lev-ra", "rcu", "chase-lev-sc", "lamport2-tso"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, err := litmus.Get(name)
			if err != nil {
				t.Fatalf("litmus.Get: %v", err)
			}
			p, err := parser.Parse(e.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			CheckWorkers(t, name, p, Options{AbstractVals: true, Reduce: true})
		})
	}
}

// TestReduceCorpusParity sweeps the rest of the litmus corpus (entries not
// already pinned in fig7Reduce) for verdict parity and never-larger state
// counts under reduction.
func TestReduceCorpusParity(t *testing.T) {
	pinned := make(map[string]bool, len(fig7Reduce))
	for _, row := range fig7Reduce {
		pinned[row.name] = true
	}
	for _, e := range litmus.All() {
		if pinned[e.Name] {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			p, err := parser.Parse(e.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			full, err := Verify(p, Options{AbstractVals: true, Workers: 1})
			if err != nil {
				t.Fatalf("Verify(reduce off): %v", err)
			}
			red, err := Verify(p, Options{AbstractVals: true, Workers: 1, Reduce: true})
			if err != nil {
				t.Fatalf("Verify(reduce on): %v", err)
			}
			if red.Robust != full.Robust {
				t.Errorf("reduced verdict = %v, unreduced = %v", red.Robust, full.Robust)
			}
			if red.Robust != e.RobustRA {
				t.Errorf("verdict = %v, want %v", red.Robust, e.RobustRA)
			}
			if red.States > full.States {
				t.Errorf("reduction enlarged the state space: %d > %d", red.States, full.States)
			}
		})
	}
}

// TestReduceComposesWithPrune runs reduction on top of the static pre-pass:
// both layers on must preserve the verdict and never explore more states
// than the pre-pass alone.
func TestReduceComposesWithPrune(t *testing.T) {
	if testing.Short() {
		t.Skip("composition sweep is slow")
	}
	for _, name := range []string{"peterson-ra", "dekker-tso", "chase-lev-ra", "seqlock"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, err := litmus.Get(name)
			if err != nil {
				t.Fatalf("litmus.Get: %v", err)
			}
			p, err := parser.Parse(e.Source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			pruneOnly, err := Verify(p, Options{AbstractVals: true, Workers: 1, StaticPrune: true})
			if err != nil {
				t.Fatalf("Verify(prune): %v", err)
			}
			both, err := Verify(p, Options{AbstractVals: true, Workers: 1, StaticPrune: true, Reduce: true})
			if err != nil {
				t.Fatalf("Verify(prune+reduce): %v", err)
			}
			if both.Robust != pruneOnly.Robust || both.Robust != e.RobustRA {
				t.Errorf("prune+reduce verdict = %v, prune = %v, want %v",
					both.Robust, pruneOnly.Robust, e.RobustRA)
			}
			if both.States > pruneOnly.States {
				t.Errorf("prune+reduce states = %d > prune alone %d", both.States, pruneOnly.States)
			}
		})
	}
}
