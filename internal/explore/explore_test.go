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

// TestQueueCompaction drives the queue's head far past the 4096-element
// compaction threshold, with live items on both sides of every compaction
// point, and verifies that FIFO order survives and that the backing array
// actually shrank (compaction is the queue's memory-release fast path and
// was previously untested).
func TestQueueCompaction(t *testing.T) {
	var q explore.Queue[int]
	next := 0   // next value to push
	expect := 0 // next value Pop must return
	push := func(n int) {
		for i := 0; i < n; i++ {
			q.Push(int32(next), next)
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			it, ok := q.Pop()
			if !ok {
				t.Fatalf("queue empty at %d", expect)
			}
			if it.ID != int32(expect) || it.St != expect {
				t.Fatalf("pop = (%d, %d), want %d", it.ID, it.St, expect)
			}
			expect++
		}
	}
	// Fill well past the threshold, then drain until head > 4096 and the
	// live count is small enough that head*2 > len fires.
	push(10000)
	pop(9000) // head crosses 4096 and compaction fires at least once
	if q.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", q.Len())
	}
	// Repeat the cycle several times so compaction fires with freshly
	// pushed items following carried-over ones: each round pushes 8000 and
	// drains back down to 500 live.
	for round := 0; round < 5; round++ {
		push(8000)
		pop(q.Len() - 500)
		if q.Len() != 500 {
			t.Fatalf("round %d: Len = %d, want 500", round, q.Len())
		}
	}
	pop(q.Len())
	if _, ok := q.Pop(); ok {
		t.Fatal("drained queue still pops")
	}
	if next != expect {
		t.Fatalf("pushed %d items but popped %d", next, expect)
	}
}

func TestQueueFIFO(t *testing.T) {
	var q explore.Queue[int]
	for i := 0; i < 10000; i++ {
		q.Push(int32(i), i*2)
	}
	for i := 0; i < 10000; i++ {
		it, ok := q.Pop()
		if !ok || it.ID != int32(i) || it.St != i*2 {
			t.Fatalf("pop %d: got %+v ok=%v", i, it, ok)
		}
		// Interleave pushes to exercise compaction.
		if i%3 == 0 {
			q.Push(int32(10000+i), i)
		}
	}
	if q.Len() == 0 {
		t.Fatal("interleaved pushes should remain")
	}
	for {
		if _, ok := q.Pop(); !ok {
			break
		}
	}
	if q.Len() != 0 {
		t.Fatalf("drained queue has Len %d", q.Len())
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
