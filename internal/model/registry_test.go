package model

import (
	"strings"
	"testing"

	"repro/internal/litmus"
	"repro/internal/parser"
	"repro/internal/staterobust"
)

// TestRegistryModes pins the registry surface: canonical order (user-facing
// in rocker/sweep output and rockerd error messages), validity, and the
// mode list string.
func TestRegistryModes(t *testing.T) {
	want := []string{"ra", "sra", "sc", "tso", "state-ra", "state-sra", "state-tso"}
	got := Modes()
	if len(got) != len(want) {
		t.Fatalf("Modes() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Modes() = %v, want %v", got, want)
		}
	}
	for _, m := range want {
		if !Valid(m) {
			t.Errorf("Valid(%q) = false", m)
		}
		if in, ok := Lookup(m); !ok || in.Mode != m {
			t.Errorf("Lookup(%q) = %+v, %v", m, in, ok)
		}
	}
	for _, m := range []string{"", "tso ", "TSO", "x86", "power"} {
		if Valid(m) {
			t.Errorf("Valid(%q) = true", m)
		}
	}
	list := ModeList()
	if list != strings.Join(want, ", ") {
		t.Errorf("ModeList() = %q", list)
	}
}

// TestRunMatrix exercises Run across every registered mode on one small
// robust program — the cross-model verdict matrix of a single row.
func TestRunMatrix(t *testing.T) {
	e, err := litmus.Get("barrier")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range Modes() {
		rr, err := Run(mode, e.Program(), RunOpts{MaxStates: 2_000_000, TSOBufCap: 4})
		if err != nil {
			t.Fatalf("Run(%s): %v", mode, err)
		}
		if rr.Mode != mode {
			t.Errorf("Run(%s): result mode %q", mode, rr.Mode)
		}
		if !rr.Robust {
			t.Errorf("Run(%s): barrier reported non-robust", mode)
		}
		if rr.States <= 0 {
			t.Errorf("Run(%s): States = %d", mode, rr.States)
		}
		info, _ := Lookup(mode)
		if info.Graph && rr.WeakStates != 0 {
			t.Errorf("Run(%s): graph mode reported WeakStates = %d", mode, rr.WeakStates)
		}
		if !info.Graph && rr.SCStates <= 0 {
			t.Errorf("Run(%s): state mode reported SCStates = %d", mode, rr.SCStates)
		}
	}
	if _, err := Run("x86", e.Program(), RunOpts{}); err == nil {
		t.Error("Run(x86): want error")
	} else if !strings.Contains(err.Error(), "state-tso") {
		t.Errorf("Run(x86) error should enumerate modes, got %v", err)
	}
}

// TestCheckRejectsGraphModes: Check is the state-mode dispatcher; graph
// modes must be routed through Run.
func TestCheckRejectsGraphModes(t *testing.T) {
	e, err := litmus.Get("barrier")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{ModeRA, ModeSRA, ModeSC, "bogus"} {
		if _, err := Check(mode, e.Program(), staterobust.Limits{}); err == nil {
			t.Errorf("Check(%s): want error", mode)
		}
	}
}

// TestRunReportsBufBoundHit: a thread that buffers two stores before its
// load cannot do so with a one-entry buffer; Run must say the verdict was
// truncated by the capacity, in both TSO modes, and not with the default
// capacity.
func TestRunReportsBufBoundHit(t *testing.T) {
	p, err := parser.Parse(`
program two-stores
vals 2
locs x y
thread t1
  x := 1
  y := 1
  a := y
end
thread t2
  b := x
end
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{ModeTSO, ModeStateTSO} {
		for _, bufCap := range []int{1, 0} {
			rr, err := Run(mode, p, RunOpts{TSOBufCap: bufCap, Workers: 2})
			if err != nil {
				t.Fatalf("%s cap=%d: %v", mode, bufCap, err)
			}
			if want := bufCap == 1; rr.BufBoundHit != want {
				t.Errorf("%s cap=%d: BufBoundHit = %v, want %v", mode, bufCap, rr.BufBoundHit, want)
			}
			if want := bufCap == 1; strings.HasSuffix(Cell(rr), " bufcap") != want {
				t.Errorf("%s cap=%d: cell %q", mode, bufCap, Cell(rr))
			}
		}
	}
}
