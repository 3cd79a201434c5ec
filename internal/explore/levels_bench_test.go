package explore_test

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/explore"
)

// internStream is a recorded intern stream for the store microbenchmarks:
// a graph of n states with 32-byte keys in which every state has about
// 3.3 successors, and its breadth-first levels. Both benchmarks intern
// exactly its successor lists, level by level, so their ns/intern compare
// the two ways of interning one stream.
type internStream struct {
	keys    []byte    // state k's key is keys[32k : 32k+32]
	succ    [][]int32 // successors of each state
	levels  [][]int32 // the states first reached on each level
	interns int       // total successor arcs
}

const streamKey = 32

var (
	streamOnce sync.Once
	stream     *internStream
)

// loadStream builds the stream once, from a fixed seed: each state k has
// successors 2k+1 and 2k+2 (within n, so one on average) and a
// geometrically distributed number of random ones, 2.3 on average.
// Short mode uses a sixteenth of the states.
func loadStream() *internStream {
	streamOnce.Do(func() {
		n := 1 << 20
		if testing.Short() {
			n = 1 << 16
		}
		rng := rand.New(rand.NewSource(1))
		s := &internStream{keys: make([]byte, n*streamKey), succ: make([][]int32, n)}
		for k := 0; k < n; k++ {
			key := s.keys[k*streamKey : (k+1)*streamKey]
			binary.LittleEndian.PutUint64(key, uint64(k))
			rng.Read(key[8:])
			for _, c := range []int{2*k + 1, 2*k + 2} {
				if c < n {
					s.succ[k] = append(s.succ[k], int32(c))
				}
			}
			for extra := 0; rng.Intn(100) < 70 && extra < 16; extra++ {
				s.succ[k] = append(s.succ[k], int32(rng.Intn(n)))
			}
			s.interns += len(s.succ[k])
		}
		seen := make([]bool, n)
		seen[0] = true
		for level := []int32{0}; len(level) > 0; {
			s.levels = append(s.levels, level)
			var next []int32
			for _, k := range level {
				for _, c := range s.succ[k] {
					if !seen[c] {
						seen[c] = true
						next = append(next, c)
					}
				}
			}
			level = next
		}
		stream = s
	})
	return stream
}

func (s *internStream) key(k int32) []byte {
	return s.keys[int(k)*streamKey : (int(k)+1)*streamKey]
}

// reportPerIntern reports ns/intern and allocs/intern for b.N replays of
// the stream, given the memory statistics read after a GC before the timed
// loop, and B/state: the live heap after GC, over that before the loop,
// per state of the last replay's store (which must still be reachable).
func reportPerIntern(b *testing.B, s *internStream, before *runtime.MemStats, store *explore.Sharded) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	interns := float64(b.N) * float64(s.interns)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/interns, "ns/intern")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/interns, "allocs/intern")
	runtime.GC()
	runtime.GC() // the second empties the batch pool's victim cache
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(store.Len()), "B/state")
	runtime.KeepAlive(store)
}

// BenchmarkLevelCommit interns the stream through RunLevels: each level's
// successors are batched during expansion and committed shard by shard.
func BenchmarkLevelCommit(b *testing.B) {
	s := loadStream()
	b.ReportAllocs()
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	var store *explore.Sharded
	for i := 0; i < b.N; i++ {
		store = explore.NewSharded(false)
		root, _ := store.Add(s.key(0), -1, explore.Step{})
		expand := func(w int, id int64, bt *explore.Batch) bool {
			k := int32(binary.LittleEndian.Uint64(store.Key(id)))
			for _, c := range s.succ[k] {
				bt.Add(s.key(c), id, explore.Step{}, 0)
			}
			return true
		}
		explore.RunLevels(0, [][]int64{{root}}, expand, []explore.Commit{{Into: store}}, nil, explore.RunOpts{})
		if store.Len() != len(s.succ) {
			b.Fatalf("interned %d states, want %d", store.Len(), len(s.succ))
		}
	}
	b.StopTimer()
	reportPerIntern(b, s, &before, store)
}

// BenchmarkShardedAdd interns the same stream, level by level, with one
// locked Sharded.Add per successor from GOMAXPROCS workers: the per-key
// path RunLevels' level commit replaced.
func BenchmarkShardedAdd(b *testing.B) {
	s := loadStream()
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	var store *explore.Sharded
	for i := 0; i < b.N; i++ {
		store = explore.NewSharded(false)
		store.Add(s.key(0), -1, explore.Step{})
		for _, level := range s.levels {
			var (
				cursor atomic.Int64
				wg     sync.WaitGroup
			)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						lo := int(cursor.Add(32)) - 32
						if lo >= len(level) {
							return
						}
						for _, k := range level[lo:min(lo+32, len(level))] {
							for _, c := range s.succ[k] {
								store.Add(s.key(c), int64(k), explore.Step{})
							}
						}
					}
				}()
			}
			wg.Wait()
		}
		if store.Len() != len(s.succ) {
			b.Fatalf("interned %d states, want %d", store.Len(), len(s.succ))
		}
	}
	b.StopTimer()
	reportPerIntern(b, s, &before, store)
}
