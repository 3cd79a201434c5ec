package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/litmus"
	"repro/internal/parser"
)

// symWide has three identical threads over 9 locations and 10 values, so
// thread symmetry folds states whose location and value words are two
// bytes wide.
var symWide = "program sym-wide\nvals 10\nlocs a b c d e f g h x\n" + strings.Repeat(`thread t
  r := FADD(x, 3)
  wait(x = 9)
  h := r
  s := a
end
`, 3)

// wideRows pin verdicts on programs whose SCM words are wider than one
// byte (every corpus row has at most 8 locations and 8 values): location
// sets of 2 bytes (L ≥ 9), value sets of 2 bytes (|Val| ≥ 9), or both. The
// figures were recorded under rocker's defaults (RA, abstract values,
// Reduce) with the word-per-component monitor state that preceded the
// byte layout, whose keys the byte layout reproduces.
var wideRows = []struct {
	name, src         string
	robust            bool
	states            int
	ample, sleep, sym int64
	viol              string // kind, thread, location, pc
	trace             string
}{
	{name: "sb-wide", robust: false, states: 20, ample: 9, sleep: 1, src: `
program sb-wide
vals 2
locs a b c d e f g h x y
thread t1
  a := 1
  b := 1
  c := 1
  d := 1
  x := 1
  r := y
end
thread t2
  e := 1
  f := 1
  g := 1
  h := 1
  y := 1
  r := x
end
`, viol: "stale read t0 loc9 pc5", trace: `
  1: t1: W(a,1)
  2: t1: W(b,1)
  3: t1: W(c,1)
  4: t1: W(d,1)
  5: t2: W(e,1)
  6: t2: W(f,1)
  7: t2: W(g,1)
  8: t2: W(h,1)
  9: t2: W(y,1)
 10: t2: R(x,0)
 11: t1: W(x,1)
`},
	{name: "mp-wide", robust: true, states: 34, ample: 9, sleep: 3, src: `
program mp-wide
vals 2
locs a b c d e f g h x
thread t1
  a := 1
  b := 1
  c := 1
  d := 1
  e := 1
  f := 1
  g := 1
  h := 1
  x := 1
end
thread t2
  r := x
  s := h
  u := a
end
`},
	{name: "sb-vals", robust: false, states: 18, ample: 1, sleep: 2, src: `
program sb-vals
vals 10
locs x y
thread t1
  x := 9
  r := CAS(y, 9, 7)
end
thread t2
  y := 9
  y := 5
  r := CAS(x, 9, 8)
end
`, viol: "stale RMW t0 loc1 pc1", trace: `
  1: t2: W(y,9)
  2: t2: W(y,5)
  3: t2: R(x,0)
  4: t1: W(x,9)
`},
	{name: "ticketlock-n3-r3", robust: true, states: 10405, sleep: 6405, src: litmus.TicketlockSrc(3, 3)},
	{name: "sym-wide", robust: true, states: 62, ample: 27, sleep: 23, sym: 37, src: symWide},
}

// TestWideWords checks the wide rows' verdict, state count, reduction
// counters, violation and witness trace at one and two workers.
func TestWideWords(t *testing.T) {
	for _, row := range wideRows {
		p := parser.MustParse(row.src)
		if p.NumLocs() <= 8 && p.ValCount <= 8 {
			t.Fatalf("%s: %d locations and %d values fit one-byte words", row.name, p.NumLocs(), p.ValCount)
		}
		for _, workers := range []int{1, 2} {
			v, err := core.Verify(p, core.Options{AbstractVals: true, Reduce: true, Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
			var viol string
			if len(v.Violations) > 0 {
				vi := v.Violations[0]
				viol = fmt.Sprintf("%s t%d loc%d pc%d", vi.Kind, vi.Tid, vi.Loc, vi.PC)
			}
			if v.Robust != row.robust || v.States != row.states || viol != row.viol {
				t.Errorf("%s/w%d: robust=%v states=%d violation %q, want %v %d %q",
					row.name, workers, v.Robust, v.States, viol, row.robust, row.states, row.viol)
			}
			if v.AmpleHits != row.ample || v.SleepSkips != row.sleep || v.SymmetryFolds != row.sym {
				t.Errorf("%s/w%d: ample/sleep/sym = %d/%d/%d, want %d/%d/%d", row.name, workers,
					v.AmpleHits, v.SleepSkips, v.SymmetryFolds, row.ample, row.sleep, row.sym)
			}
			if got, want := core.FormatTrace(p, v.Trace), strings.TrimPrefix(row.trace, "\n"); got != want {
				t.Errorf("%s/w%d: trace\n%s\nwant\n%s", row.name, workers, got, want)
			}
		}
	}
}
