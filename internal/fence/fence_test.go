package fence_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fence"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/parser"
	"repro/internal/staterobust"
)

// TestEnforceSB repairs the store-buffering litmus test: the minimal
// placement is one fence per thread, between the write and the read —
// recovering exactly the SB+RMWs program of Example 3.6.
func TestEnforceSB(t *testing.T) {
	e, _ := litmus.Get("SB")
	p := e.Program()
	pls, fixed, err := fence.Enforce(p, fence.Options{})
	if err != nil {
		t.Fatalf("enforce: %v", err)
	}
	if len(pls) != 2 {
		t.Fatalf("placements = %v, want one fence per thread", pls)
	}
	if pls[0].Tid == pls[1].Tid {
		t.Errorf("both fences in the same thread: %v", pls)
	}
	v, err := core.Verify(fixed, core.DefaultOptions())
	if err != nil || !v.Robust {
		t.Fatalf("strengthened program not robust: %v %v", v, err)
	}
	// And it must now be state robust against RA, too (Prop. 4.10).
	res, err := staterobust.CheckRA(fixed, staterobust.Limits{MaxStates: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Robust {
		t.Error("strengthened SB not state robust under the RA machine")
	}
}

// TestEnforceAlreadyRobust returns the program unchanged with no fences.
func TestEnforceAlreadyRobust(t *testing.T) {
	e, _ := litmus.Get("MP")
	p := e.Program()
	pls, fixed, err := fence.Enforce(p, fence.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pls) != 0 || fixed != p {
		t.Errorf("robust program should come back unchanged, got %v", pls)
	}
}

// TestEnforceDekker repairs Dekker's algorithm (the paper's canonical
// example of a program whose RA behaviour is harmful): the store-buffering
// shape on the two flags needs one fence per thread.
func TestEnforceDekker(t *testing.T) {
	if testing.Short() {
		t.Skip("search over dekker placements is slow")
	}
	e, _ := litmus.Get("dekker-sc")
	p := e.Program()
	pls, fixed, err := fence.Enforce(p, fence.Options{MaxRepairs: 2})
	if err != nil {
		t.Fatalf("enforce: %v", err)
	}
	if len(pls) != 2 {
		t.Fatalf("expected a 2-fence repair, got %v", pls)
	}
	v, err := core.Verify(fixed, core.DefaultOptions())
	if err != nil || !v.Robust {
		t.Fatalf("strengthened dekker not robust")
	}
}

// TestEnforceUnfixable: IRIW with MaxFences 1 cannot be repaired (it needs
// a fence in each reader).
func TestEnforceUnfixable(t *testing.T) {
	e, _ := litmus.Get("IRIW")
	p := e.Program()
	_, _, err := fence.Enforce(p, fence.Options{MaxRepairs: 1})
	if err == nil {
		t.Fatal("expected ErrNotEnforceable")
	}
}

// TestInsertRemapsJumps checks the jump-target remapping of Apply on a
// looping thread.
func TestInsertRemapsJumps(t *testing.T) {
	p := parser.MustParse(`
program loop
vals 2
locs x y
thread t
L:
  x := 1
  r := y
  if r = 0 goto L
end
`)
	fixed := fence.Apply(p, []fence.Placement{{Kind: fence.InsertFence, Tid: 0, At: 1}})
	tr := fixed.Threads[0]
	if len(tr.Insts) != 4 {
		t.Fatalf("expected 4 instructions, got %d", len(tr.Insts))
	}
	if tr.Insts[1].Kind != lang.IFADD {
		t.Fatalf("fence not inserted at position 1: %s", &tr.Insts[1])
	}
	g := tr.Insts[3]
	if g.Kind != lang.IGoto || g.Target != 0 {
		t.Fatalf("loop back-edge should still target 0, got %d", g.Target)
	}
	if err := fixed.Validate(); err != nil {
		t.Fatalf("inserted program invalid: %v", err)
	}
	// Inserting before the read instead: the back-edge target 0 is
	// unaffected, a jump to the read would shift.
	fixed2 := fence.Apply(p, []fence.Placement{{Kind: fence.InsertFence, Tid: 0, At: 0}})
	if fixed2.Threads[0].Insts[3].Target != 0 {
		// Jumping to instruction 0 now lands on the fence, which runs
		// before the original first instruction.
		t.Fatalf("target should remap to the fence position, got %d", fixed2.Threads[0].Insts[3].Target)
	}
}
