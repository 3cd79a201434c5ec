package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/litmus"
	"repro/internal/parser"
)

// TestHashCompactEquivalence checks that the hash-compacted visited set
// produces the same verdicts and state counts as the exact one across the
// small corpus (a collision would shrink the count).
func TestHashCompactEquivalence(t *testing.T) {
	for _, e := range litmus.All() {
		if e.Big {
			continue
		}
		p := e.Program()
		exact, err := core.Verify(p, core.Options{AbstractVals: true})
		if err != nil {
			t.Fatal(err)
		}
		hashed, err := core.Verify(p, core.Options{AbstractVals: true, HashCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		if exact.Robust != hashed.Robust || exact.States != hashed.States {
			t.Errorf("%s: exact (robust=%v states=%d) vs hashcompact (robust=%v states=%d)",
				e.Name, exact.Robust, exact.States, hashed.Robust, hashed.States)
		}
	}
}

// TestVerifySC checks the plain SC explorer: assertion detection and
// agreement with the instrumented run on assertion-free programs.
func TestVerifySC(t *testing.T) {
	bad := parser.MustParse(`
program bad
vals 3
locs x
thread t1
  x := 2
end
thread t2
  r := x
  assert r != 2
end
`)
	v, err := core.VerifySC(bad, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v.AssertFail == nil {
		t.Fatal("expected an assertion failure under SC")
	}
	// The instrumented verifier must report it too (a failing assertion
	// is a verification failure regardless of robustness).
	rv, err := core.Verify(bad, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rv.Robust || rv.AssertFail == nil {
		t.Errorf("instrumented run should surface the assertion failure: %+v", rv)
	}

	e, _ := litmus.Get("MP")
	good := e.Program()
	gv, err := core.VerifySC(good, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gv.AssertFail != nil || gv.States == 0 {
		t.Errorf("MP under SC: %+v", gv)
	}
}

// TestMaxStatesBound checks that the state bound aborts with ErrStateBound
// rather than returning a verdict.
func TestMaxStatesBound(t *testing.T) {
	e, _ := litmus.Get("peterson-ra")
	_, err := core.Verify(e.Program(), core.Options{AbstractVals: true, MaxStates: 10})
	if err == nil {
		t.Fatal("expected the state bound to trip")
	}
}

// TestExplainAndTrace smoke-tests the human-readable outputs.
func TestExplainAndTrace(t *testing.T) {
	e, _ := litmus.Get("SB")
	p := e.Program()
	v, err := core.Verify(p, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := core.Explain(p, v)
	for _, want := range []string{"NOT robust", "stale read", "SC run", "W(x,1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}
	if len(v.Trace) == 0 {
		t.Fatal("expected a counterexample trace")
	}
	ft := core.FormatTrace(p, v.Trace)
	if !strings.Contains(ft, "t1: W(x,1)") {
		t.Errorf("FormatTrace output:\n%s", ft)
	}

	e2, _ := litmus.Get("MP")
	p2 := e2.Program()
	v2, _ := core.Verify(p2, core.DefaultOptions())
	if out := core.Explain(p2, v2); !strings.Contains(out, "ROBUST") {
		t.Errorf("Explain on a robust program:\n%s", out)
	}
}

// TestMetadataBitsReported checks the §5.1 size is surfaced on the
// verdict and shrinks under abstraction when the program has few critical
// values.
func TestMetadataBitsReported(t *testing.T) {
	e, _ := litmus.Get("MP") // no wait/CAS: no critical values at all
	p := e.Program()
	abs, _ := core.Verify(p, core.Options{AbstractVals: true})
	full, _ := core.Verify(p, core.Options{AbstractVals: false})
	if abs.MetadataBits >= full.MetadataBits {
		t.Errorf("abstract metadata (%d bits) should be smaller than full (%d bits)",
			abs.MetadataBits, full.MetadataBits)
	}
	// MP: |Tid| = |Loc| = 2, no critical values: 3·2·2 + 4·4 = 28 bits.
	if abs.MetadataBits != 28 {
		t.Errorf("MP abstract metadata = %d bits, want 28", abs.MetadataBits)
	}
}
