package staterobust_test

import (
	"testing"

	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/staterobust"
)

// TestTSOVerdicts checks mode state-tso, the TSO state-robustness
// baseline (the repository's stand-in for the Trencher column of Figure
// 7), against the expected verdicts: the paper's Trencher results, with
// the four ✗⋆ rows (spurious, caused by Trencher's lack of blocking
// instructions) replaced by the semantic verdict — robust — as the paper
// argues they should be.
func TestTSOVerdicts(t *testing.T) {
	for _, e := range litmus.All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			if e.Big || e.Name == "nbw-w-lr-rl" {
				// nbw-w-lr-rl: the ε-granular TSO product of one writer
				// and three retry-loop readers exceeds 30M states; its
				// seqlock sibling covers the same protocol shape.
				t.Skip("state space too large for the TSO product explorer")
			}
			if testing.Short() && (e.Name == "rcu" || e.Name == "rcu-offline" || e.Name == "seqlock" || e.Name == "nbw-w-lr-rl" || e.Name == "lamport2-ra") {
				t.Skip("slow TSO product; skipped in -short")
			}
			t.Parallel()
			p := e.Program()
			res, err := model.Check(model.ModeStateTSO, p, staterobust.Limits{MaxStates: 30_000_000, TSOBufCap: 4})
			if err != nil {
				t.Fatalf("state-tso: %v", err)
			}
			if res.Robust != e.RobustTSO {
				t.Errorf("got TSO-robust=%v, want %v (SC states %d, weak states %d)",
					res.Robust, e.RobustTSO, res.SCStates, res.WeakStates)
			}
		})
	}
}
