package diffcheck

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/parser"
	"repro/internal/staterobust"
)

// The battery must be clean on the whole embedded corpus: these programs
// have known verdicts, so any finding here is a bug in an engine or in
// the harness itself. Big entries are skipped — their instrumented state
// spaces need bounds that would dominate the test run.
func TestBatteryLitmus(t *testing.T) {
	cfg := Config{RAMaxStates: 4000}
	for _, e := range litmus.All() {
		if e.Big {
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			rep := CheckSource(e.Source, cfg)
			for _, f := range rep.Findings {
				t.Errorf("finding: %v", f)
			}
		})
	}
}

// A slice of the generator stream, exactly as cmd/fuzz drives it, plus the
// digest-invariance pairs. Uses a seed cmd/fuzz's documented runs don't,
// so a regression here is not masked by the acceptance sweep.
func TestBatteryGenerated(t *testing.T) {
	if testing.Short() {
		t.Skip("generated battery needs a few seconds")
	}
	g := gen.New(gen.Config{Seed: 7})
	cfg := Config{RAMaxStates: 4000}
	for i := 0; i < 25; i++ {
		src := g.Source(i)
		rep := CheckSource(src, cfg)
		for _, f := range rep.Findings {
			t.Errorf("program %d: finding %v\nsource:\n%s", i, f, src)
		}
		if f := CheckVariantDigest(src, g.Variant(i, 1)); f != nil {
			t.Errorf("program %d: %v", i, f)
		}
	}
}

func TestCheckVariantDigest(t *testing.T) {
	base := "vals 2\nlocs x\nlocs y\n\nthread a\n  x := 1\n  r := y\nend\n"
	renamed := "vals 2\nlocs u\nlocs v\n\nthread b\n  u := 1\n  s := v\nend\n"
	if f := CheckVariantDigest(base, renamed); f != nil {
		t.Errorf("renamed variant flagged: %v", f)
	}
	different := "vals 2\nlocs x\nlocs y\n\nthread a\n  x := 1\n  r := x\nend\n"
	if f := CheckVariantDigest(base, different); f == nil {
		t.Errorf("semantically different program not flagged")
	}
}

// Minimize must shrink to a local minimum of the predicate: with
// "contains a write to x0" as the property, that is one thread with one
// instruction.
func TestMinimize(t *testing.T) {
	src := `vals 2
locs x0
locs x1

thread t0
  r0 := x1
  x0 := 1
  r1 := FADD(x1, 0)
end

thread t1
  x1 := 1
  wait(x1 = 1)
end

thread t2
  r0 := CAS(x0, 0, 1)
end
`
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	hasWrite := func(q *lang.Program) bool {
		for ti := range q.Threads {
			for ii := range q.Threads[ti].Insts {
				in := &q.Threads[ti].Insts[ii]
				if in.Kind == lang.IWrite && in.Mem.Base == 0 {
					return true
				}
			}
		}
		return false
	}
	min := Minimize(p, hasWrite)
	if !hasWrite(min) {
		t.Fatalf("minimized program lost the property:\n%s", parser.Format(min))
	}
	if err := min.Validate(); err != nil {
		t.Fatalf("minimized program does not validate: %v", err)
	}
	insts := 0
	for ti := range min.Threads {
		insts += len(min.Threads[ti].Insts)
	}
	if len(min.Threads) != 1 || insts != 1 {
		t.Errorf("not minimal: %d threads, %d instructions\n%s", len(min.Threads), insts, parser.Format(min))
	}
}

// The no-op mutant must validate, keep the original's digest-relevant
// behaviour out of reach (fresh location, fresh register), and round-trip.
func TestNoopRMWMutant(t *testing.T) {
	src := "vals 2\nlocs x\n\nthread a\n  x := 1\n  r := x\n  goto L\nL:\nend\n"
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := noopRMWMutant(p)
	if !ok {
		t.Fatal("no-op mutant not constructed")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("mutant does not validate: %v\n%s", err, parser.Format(m))
	}
	if len(m.Locs) != len(p.Locs)+1 {
		t.Errorf("mutant has %d locations, want %d", len(m.Locs), len(p.Locs)+1)
	}
	found := 0
	for ti := range m.Threads {
		for ii := range m.Threads[ti].Insts {
			in := &m.Threads[ti].Insts[ii]
			if in.Kind == lang.IFADD && in.Mem.Base == lang.Loc(len(p.Locs)) {
				found++
			}
		}
	}
	if found != 1 {
		t.Errorf("mutant has %d no-op FADDs, want 1", found)
	}
	if _, err := parser.Parse(parser.Format(m)); err != nil {
		t.Errorf("mutant listing does not parse: %v\n%s", err, parser.Format(m))
	}
	// The original must be untouched.
	if got := parser.Format(p); !strings.Contains(got, "goto") || strings.Contains(got, "FADD") {
		t.Errorf("original program mutated:\n%s", got)
	}
}

// The tso-symmetry leg must decide store buffering with a twin of its
// first delayer appended — non-robust, so the folded witness is replayed
// too — without a finding or a skip.
func TestTSOSymmetryLeg(t *testing.T) {
	e, err := litmus.Get("SB")
	if err != nil {
		t.Fatal(err)
	}
	r := &Report{}
	checkTSOSymmetry(r, e.Program(), staterobust.Limits{MaxStates: 10_000, Workers: 1})
	for _, f := range r.Findings {
		t.Errorf("finding: %v", f)
	}
	if len(r.Skipped) > 0 {
		t.Errorf("skipped: %v", r.Skipped)
	}
}
