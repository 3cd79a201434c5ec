package model

import (
	"testing"

	"repro/internal/litmus"
	"repro/internal/staterobust"
)

// TestTSOAdapterParity pins mode state-tso, CheckState over the full TSO
// machine (NewTSO, every buffer live), against the independent sequential
// explorer of tsooracle_test.go: same verdict, same compound-state count,
// same projection counts — both explore the same ε-granular product under
// the same state encoding. This is what licenses CheckState as the engine
// of both TSO modes. With Reduce both fold the projections alike, and only
// state-tso folds its compound states, so its Explored may only shrink.
func TestTSOAdapterParity(t *testing.T) {
	rows := []string{"barrier", "spinlock", "dekker-tso", "lamport2-tso", "dekker-sc", "peterson-sc",
		"ticketlock4", "chase-lev-tso", "rcu-offline"}
	for _, name := range rows {
		e, err := litmus.Get(name)
		if err != nil {
			t.Fatalf("litmus.Get(%q): %v", name, err)
		}
		p := e.Program()
		for _, reduce := range []bool{false, true} {
			lim := staterobust.Limits{MaxStates: 2_000_000, TSOBufCap: 4, Reduce: reduce}
			got, err := Check(ModeStateTSO, p, lim)
			if err != nil {
				t.Fatalf("%s reduce=%v: state-tso: %v", name, reduce, err)
			}
			want, err := oracleCheckTSO(p, lim)
			if err != nil {
				t.Fatalf("%s reduce=%v: oracle: %v", name, reduce, err)
			}
			if got.Robust != want.Robust {
				t.Errorf("%s reduce=%v: Robust = %v, oracle says %v", name, reduce, got.Robust, want.Robust)
			}
			if got.SCStates != want.SCStates {
				t.Errorf("%s reduce=%v: SCStates = %d, want %d", name, reduce, got.SCStates, want.SCStates)
			}
			// On robust rows both explorations are exhaustive, so the
			// counts must match state for state. On non-robust rows both
			// stop at a violation, at different points, so only the
			// verdict and the SC set are comparable.
			if !want.Robust {
				continue
			}
			if got.WeakStates != want.WeakStates {
				t.Errorf("%s reduce=%v: WeakStates = %d, want %d", name, reduce, got.WeakStates, want.WeakStates)
			}
			if got.Explored > want.Explored || (!reduce && got.Explored != want.Explored) {
				t.Errorf("%s reduce=%v: Explored = %d, oracle %d", name, reduce, got.Explored, want.Explored)
			}
		}
	}
}

// TestRAAdapterParity checks the RA/SRA adapters against the specialized
// engines: same verdict and same program-state projection counts (both
// explorations are exhaustive on robust rows, and the projection sets are
// canonical regardless of exploration order).
func TestRAAdapterParity(t *testing.T) {
	rows := []string{"MP", "SB", "2RMW", "barrier", "BAR-loop"}
	for _, name := range rows {
		e, err := litmus.Get(name)
		if err != nil {
			t.Fatalf("litmus.Get(%q): %v", name, err)
		}
		p := e.Program()
		lim := staterobust.Limits{MaxStates: 4_000_000, Workers: 1}
		for _, sra := range []bool{false, true} {
			mm := NewRA(p, 0)
			var want *staterobust.Result
			var err error
			if sra {
				mm = NewSRA(p, 0)
				want, err = staterobust.CheckSRA(p, lim)
			} else {
				want, err = staterobust.CheckRA(p, lim)
			}
			if err != nil {
				t.Fatalf("%s sra=%v: specialized: %v", name, sra, err)
			}
			got, err := CheckState(p, mm, lim)
			if err != nil {
				t.Fatalf("%s sra=%v: CheckState: %v", name, sra, err)
			}
			if got.Robust != want.Robust {
				t.Errorf("%s sra=%v: Robust = %v, specialized engine says %v", name, sra, got.Robust, want.Robust)
			}
			if got.SCStates != want.SCStates {
				t.Errorf("%s sra=%v: SCStates = %d, want %d", name, sra, got.SCStates, want.SCStates)
			}
			if want.Robust && got.WeakStates != want.WeakStates {
				t.Errorf("%s sra=%v: WeakStates = %d, want %d", name, sra, got.WeakStates, want.WeakStates)
			}
		}
	}
}

// TestSCAdapter: the SC model explores exactly the SC-reachable set, so
// the product is trivially robust and the weak projection count equals
// the SC count.
func TestSCAdapter(t *testing.T) {
	for _, name := range []string{"barrier", "dekker-sc", "spinlock"} {
		e, err := litmus.Get(name)
		if err != nil {
			t.Fatalf("litmus.Get(%q): %v", name, err)
		}
		p := e.Program()
		res, err := CheckState(p, NewSC(p), staterobust.Limits{MaxStates: 2_000_000})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Robust {
			t.Errorf("%s: SC-vs-SC product reported non-robust", name)
		}
		if res.WeakStates != res.SCStates {
			t.Errorf("%s: WeakStates = %d, SCStates = %d — must coincide for the SC model", name, res.WeakStates, res.SCStates)
		}
	}
}
