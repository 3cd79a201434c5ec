package explore_test

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/explore"
	"repro/internal/lang"
)

// TestShardedDedup checks that concurrent Adds of an overlapping key set
// intern each key exactly once, in both exact and hash-compact modes.
func TestShardedDedup(t *testing.T) {
	for _, hc := range []bool{false, true} {
		s := explore.NewSharded(hc)
		const keys, goroutines = 5000, 8
		var added atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				buf := make([]byte, 8)
				for i := 0; i < keys; i++ {
					// Each goroutine visits every key, in a different order.
					k := (i*(g+1) + g) % keys
					binary.LittleEndian.PutUint64(buf, uint64(k))
					if _, isNew := s.Add(buf, -1, explore.Step{}); isNew {
						added.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
		if s.Len() != keys || added.Load() != keys {
			t.Errorf("hashCompact=%v: Len=%d, isNew count=%d, want %d both",
				hc, s.Len(), added.Load(), keys)
		}
	}
}

// TestShardedTrace interns a chain and checks the parent links rebuild it.
func TestShardedTrace(t *testing.T) {
	s := explore.NewSharded(false)
	id, _ := s.Add([]byte("root"), -1, explore.Step{})
	var steps []explore.Step
	for i := 0; i < 20; i++ {
		st := explore.Step{Tid: lang.Tid(i % 3), Lab: lang.WriteLab(0, lang.Val(i%4))}
		steps = append(steps, st)
		id, _ = s.Add([]byte{byte(i)}, id, st)
	}
	got := s.Trace(id)
	if len(got) != len(steps) {
		t.Fatalf("trace length %d, want %d", len(got), len(steps))
	}
	for i := range steps {
		if got[i] != steps[i] {
			t.Fatalf("trace[%d] = %+v, want %+v", i, got[i], steps[i])
		}
	}
}
