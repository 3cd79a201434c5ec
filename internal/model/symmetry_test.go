package model

import (
	"fmt"
	"testing"

	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/parser"
	"repro/internal/prog"
	"repro/internal/staterobust"
)

// unfolded hides a machine's symmetry, so CheckState explores its product
// unfolded while the projection sets stay folded under Limits.Reduce: the
// reference for what folding the compound states must not change.
type unfolded struct{ MemoryModel }

func (u unfolded) Symmetry([][]int) ThreadPerm { return nil }
func (u unfolded) Fork() MemoryModel           { return unfolded{u.MemoryModel.Fork()} }

// symSB is store buffering with a class of three identical delayers, and
// symSBFenced the same with a fence (an FADD) between each store and load.
const symSB = `
program sym-sb
vals 2
locs x y
thread t1
  x := 1
  a := y
end
thread t2
  x := 1
  a := y
end
thread t3
  x := 1
  a := y
end
thread u
  y := 1
  b := x
end
`

const symSBFenced = `
program sym-sb-fenced
vals 2
locs x y
thread t1
  x := 1
  fence
  a := y
end
thread t2
  x := 1
  fence
  a := y
end
thread t3
  x := 1
  fence
  a := y
end
thread u
  y := 1
  fence
  b := x
end
`

// TestTSOSymmetryParity pins the folded tso mode against the unfolded one
// on every corpus row with interchangeable threads and on two hand-written
// programs whose class holds delayers. At 1, 2 and 4 workers, the folded
// run (Limits.Reduce) must report the verdict, SCStates, WeakStates,
// witness length and BufBoundHit of the unfolded product with the same
// folded projections, and never explore more states than it or than the
// run with Reduce off, which agrees on verdict, witness length and
// BufBoundHit but counts raw projections. Every folded witness must
// replay, and the folded counts must not depend on the worker count.
func TestTSOSymmetryParity(t *testing.T) {
	type row struct {
		name   string
		p      *lang.Program
		robust bool
		folds  bool // a class holds delayers: folding must shrink Explored
	}
	var rows []row
	for _, e := range litmus.All() {
		if e.Big || prog.SymClasses(e.Program()) == nil {
			continue
		}
		if e.Name == "seqlock" && testing.Short() {
			continue
		}
		rows = append(rows, row{e.Name, e.Program(), e.RobustTSO, false})
	}
	if len(rows) < 3 {
		t.Fatalf("only %d corpus rows have a symmetry class", len(rows))
	}
	for _, src := range []struct {
		text   string
		robust bool
	}{{symSB, false}, {symSBFenced, true}} {
		p, err := parser.Parse(src.text)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{p.Name, p, src.robust, true})
	}
	for _, r := range rows {
		r := r
		t.Run(r.name, func(t *testing.T) {
			var ref *staterobust.Result
			for _, w := range []int{1, 2, 4} {
				lim := staterobust.Limits{MaxStates: 2_000_000, Reduce: true, Workers: w}
				on, err := CheckTSO(r.p, lim)
				if err != nil {
					t.Fatalf("workers=%d: folded: %v", w, err)
				}
				if on.Robust != r.robust {
					t.Fatalf("workers=%d: robust=%v, want %v", w, on.Robust, r.robust)
				}
				if !on.Robust {
					if err := ReplayTSO(r.p, on.WitnessTrace, lim); err != nil {
						t.Errorf("workers=%d: folded witness does not replay: %v", w, err)
					}
				}
				if ref == nil {
					ref = on
				} else if on.Explored != ref.Explored || on.SCStates != ref.SCStates || on.WeakStates != ref.WeakStates ||
					len(on.WitnessTrace) != len(ref.WitnessTrace) || on.BufBoundHit != ref.BufBoundHit {
					t.Errorf("workers=%d: %s, workers=1: %s", w, summary(on), summary(ref))
				}

				var plain *staterobust.Result
				if cands := DelayerCandidates(r.p); len(cands) > 0 {
					plain, err = CheckState(r.p, unfolded{NewTSOLazy(r.p, 0, cands)}, lim)
				} else {
					plain, err = CheckTSO(r.p, lim)
				}
				if err != nil {
					t.Fatalf("workers=%d: unfolded product: %v", w, err)
				}
				if on.Robust != plain.Robust || on.SCStates != plain.SCStates || on.WeakStates != plain.WeakStates ||
					len(on.WitnessTrace) != len(plain.WitnessTrace) || on.BufBoundHit != plain.BufBoundHit ||
					on.Explored > plain.Explored {
					t.Errorf("workers=%d: folded %s, unfolded product %s", w, summary(on), summary(plain))
				}
				if r.folds && on.Explored == plain.Explored {
					t.Errorf("workers=%d: folding left %d states unchanged", w, on.Explored)
				}

				lim.Reduce = false
				off, err := CheckTSO(r.p, lim)
				if err != nil {
					t.Fatalf("workers=%d: Reduce off: %v", w, err)
				}
				if on.Robust != off.Robust || len(on.WitnessTrace) != len(off.WitnessTrace) || on.BufBoundHit != off.BufBoundHit ||
					on.Explored > off.Explored || on.SCStates > off.SCStates || on.WeakStates > off.WeakStates {
					t.Errorf("workers=%d: folded %s, Reduce off %s", w, summary(on), summary(off))
				}
			}
			t.Logf("%s", summary(ref))
		})
	}
}

// TestTSOSymmetryCounts pins the folded counts of six robust rows at the
// 2M-state bound, so a change to the canonical form or to the order the
// product is explored in cannot slip through as a silent drift.
func TestTSOSymmetryCounts(t *testing.T) {
	pinned := []struct {
		name                           string
		explored, scStates, weakStates int
	}{
		{"seqlock", 744_324, 510_554, 510_554},
		{"rcu", 757_219, 393_139, 393_139},
		{"ticketlock4", 39_944, 14_632, 14_632},
		{"rcu-offline", 30_067, 16_084, 16_084},
		{"chase-lev-tso", 8_602, 5_557, 5_557},
		{"chase-lev-ra", 10_070, 6_424, 6_424},
	}
	for _, want := range pinned {
		if (want.name == "seqlock" || want.name == "rcu") && testing.Short() {
			continue
		}
		e, err := litmus.Get(want.name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CheckTSO(e.Program(), staterobust.Limits{MaxStates: 2_000_000, Reduce: true})
		if err != nil {
			t.Fatalf("%s: %v", want.name, err)
		}
		if !res.Robust || res.Explored != want.explored || res.SCStates != want.scStates || res.WeakStates != want.weakStates {
			t.Errorf("%s: %s, pinned robust explored=%d sc=%d weak=%d",
				want.name, summary(res), want.explored, want.scStates, want.weakStates)
		}
	}
}

// TestTSOSCSetParity checks the SC backbone CheckTSO explores inside its
// product against staterobust.ReachableSC, with Reduce on and off: on
// every corpus row with a delayer candidate and on the two symmetric
// store-buffering programs, SCStates must be ReachableSC's count.
func TestTSOSCSetParity(t *testing.T) {
	var ps []*lang.Program
	for _, e := range litmus.All() {
		if e.Big || (testing.Short() && (e.Name == "seqlock" || e.Name == "rcu")) {
			continue
		}
		ps = append(ps, e.Program())
	}
	for _, src := range []string{symSB, symSBFenced} {
		p, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		if len(DelayerCandidates(p)) == 0 {
			continue // robust at once, with no SC backbone explored
		}
		for _, reduce := range []bool{true, false} {
			lim := staterobust.Limits{MaxStates: 2_000_000, Reduce: reduce}
			res, err := CheckTSO(p, lim)
			if err != nil {
				t.Fatalf("%s reduce=%v: CheckTSO: %v", p.Name, reduce, err)
			}
			sc, err := staterobust.ReachableSC(p, lim)
			if err != nil {
				t.Fatalf("%s reduce=%v: ReachableSC: %v", p.Name, reduce, err)
			}
			if res.SCStates != sc.Len() {
				t.Errorf("%s reduce=%v: SCStates = %d, ReachableSC reaches %d", p.Name, reduce, res.SCStates, sc.Len())
			}
		}
	}
}

func summary(r *staterobust.Result) string {
	return fmt.Sprintf("robust=%v explored=%d sc=%d weak=%d trace=%d bufcap=%v",
		r.Robust, r.Explored, r.SCStates, r.WeakStates, len(r.WitnessTrace), r.BufBoundHit)
}
