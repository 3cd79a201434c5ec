package explore_test

import (
	"testing"

	"repro/internal/explore"
	"repro/internal/lang"
)

func TestStoreTrace(t *testing.T) {
	s := explore.NewStore()
	root := s.Root("a")
	id1, new1 := s.Add("b", root, explore.Step{Tid: 0, Lab: lang.WriteLab(0, 1)})
	id2, new2 := s.Add("c", id1, explore.Step{Tid: 1, Lab: lang.ReadLab(0, 1)})
	if !new1 || !new2 {
		t.Fatal("fresh states reported as duplicates")
	}
	if _, dup := s.Add("b", id2, explore.Step{}); dup {
		t.Fatal("duplicate state reported as new")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	trace := s.Trace(id2)
	if len(trace) != 2 || trace[0].Tid != 0 || trace[1].Tid != 1 {
		t.Fatalf("trace wrong: %+v", trace)
	}
	if got := s.Trace(root); len(got) != 0 {
		t.Fatalf("root trace should be empty, got %+v", got)
	}
}

// TestConcretize composes per-step permutations: every step's thread,
// internal steps included, is mapped through the permutations of the
// states before it, and the permutations are cleared.
func TestConcretize(t *testing.T) {
	swap01 := explore.PackPerm([]uint8{1, 0, 2})
	rot := explore.PackPerm([]uint8{2, 0, 1})
	trace := []explore.Step{
		{Tid: 0, Perm: swap01},             // slot 0 is thread 0; then slots 0,1 swap
		{Tid: 0, Internal: explore.IntEps}, // slot 0 now holds thread 1
		{Tid: 2, Internal: explore.IntFlush, Perm: rot},
		{Tid: 0}, // slot 0 holds what slot 2 held: thread 2
	}
	sigma := explore.Concretize(trace, 3)
	want := []lang.Tid{0, 1, 2, 2}
	for i, st := range trace {
		if st.Tid != want[i] || st.Perm != 0 {
			t.Errorf("step %d: tid %d perm %#x, want tid %d perm 0", i, st.Tid, st.Perm, want[i])
		}
	}
	if sigma[0] != 2 || sigma[1] != 1 || sigma[2] != 0 {
		t.Errorf("final map = %v, want [2 1 0]", sigma)
	}
}
