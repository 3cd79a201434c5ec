package explore_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
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

// TestShardedKeyTraceAcrossBlocks interns a parent chain of 1 KiB keys, 24
// MiB in all, so every shard's arena spans many blocks, and checks that
// Key returns every key and Trace walks the whole chain.
func TestShardedKeyTraceAcrossBlocks(t *testing.T) {
	s := explore.NewSharded(false)
	const n = 24 << 10
	key := func(i int) []byte {
		b := make([]byte, 1024)
		binary.LittleEndian.PutUint32(b, uint32(i))
		b[len(b)-1] = byte(i)
		return b
	}
	ids := make([]int64, n)
	parent := int64(-1)
	for i := range ids {
		id, isNew := s.Add(key(i), parent, explore.Step{Tid: lang.Tid(i % 5)})
		if !isNew {
			t.Fatalf("chain key %d duplicated", i)
		}
		ids[i], parent = id, id
	}
	for i, id := range ids {
		if !bytes.Equal(s.Key(id), key(i)) {
			t.Fatalf("Key(%d) of chain key %d corrupted", id, i)
		}
	}
	trace := s.Trace(parent)
	if len(trace) != n-1 {
		t.Fatalf("trace of %d steps, want %d", len(trace), n-1)
	}
	for i, st := range trace {
		if st.Tid != lang.Tid((i+1)%5) {
			t.Fatalf("trace[%d].Tid = %d, want %d", i, st.Tid, (i+1)%5)
		}
	}
}

// TestShardedBytesPerState bounds the heap an exact Sharded store takes
// per state: 1M distinct 32-byte keys, each interned once into a newly
// built store, and the live heap after GC divided by the state count.
// The keys' bytes are 33 of it (a one-byte length prefix each); the rest
// is the slot tables, key refs, parent and step columns with their growth
// slack. The store measures 80.5 B/state here.
func TestShardedBytesPerState(t *testing.T) {
	if testing.Short() {
		t.Skip("interns 1M states")
	}
	const n, bound = 1 << 20, 84
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := explore.NewFreshSharded()
	key := make([]byte, 32)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(key, uint64(i)*0x9e3779b97f4a7c15)
		binary.LittleEndian.PutUint64(key[8:], uint64(i))
		s.Add(key, int64(i)-1, explore.Step{})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	perState := float64(after.HeapAlloc-before.HeapAlloc) / n
	t.Logf("%.1f B/state", perState)
	if perState > bound {
		t.Errorf("%.1f B/state after interning %d 32-byte keys, want at most %d", perState, n, bound)
	}
	runtime.KeepAlive(s)
}
