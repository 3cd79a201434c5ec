package memra_test

import (
	"math/rand"
	"testing"

	"repro/internal/egraph"
	"repro/internal/lang"
	"repro/internal/memra"
)

// TestMachineStepsAreRAGSteps runs the timestamp machine of §3 and the
// execution-graph system RAG of §4.2 in lockstep, mapping each message to
// the write event that produced it: every machine transition must be an
// enabled RAG transition with the aligned predecessor write, and the
// resulting graph must stay RA-consistent. This is the forward-simulation
// half of Lemma 4.8 ("RAG and RA have the same traces"), checked on
// random runs.
func TestMachineStepsAreRAGSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for iter := 0; iter < 250; iter++ {
		numT := 1 + rng.Intn(3)
		numL := 1 + rng.Intn(3)
		st := memra.New(numL, numT)
		g := egraph.NewGraph(numL, nil)
		// evOf maps (loc, timestamp) to the graph event of the message.
		evOf := map[[2]int]int{}
		for x := 0; x < numL; x++ {
			evOf[[2]int{x, 0}] = x // initialization events
		}
		// predOf returns the event of the mo-latest message with
		// timestamp < ts.
		predOf := func(x lang.Loc, ts memra.Time) int {
			best, bestTs := -1, memra.Time(0)
			for _, m := range st.Msgs {
				if m.Loc == x && m.T < ts && (best < 0 || m.T > bestTs) {
					best, bestTs = evOf[[2]int{int(x), int(m.T)}], m.T
				}
			}
			return best
		}
		for step := 0; step < 10+rng.Intn(10); step++ {
			tid := lang.Tid(rng.Intn(numT))
			x := lang.Loc(rng.Intn(numL))
			switch rng.Intn(3) {
			case 0: // write
				slots := st.WriteSlots(tid, x, 3)
				if len(slots) == 0 {
					continue
				}
				ts := slots[rng.Intn(len(slots))]
				v := lang.Val(rng.Intn(3))
				w := predOf(x, ts)
				l := lang.WriteLab(x, v)
				if !g.RAGEnabled(int(tid), l, w) {
					t.Fatalf("iter %d: machine write @%d not RAG-enabled after e%d:\n%s", iter, ts, w, g)
				}
				st.Write(tid, x, v, ts)
				evOf[[2]int{int(x), int(ts)}] = g.Add(int(tid), l, w)
			case 1: // read
				cands := st.ReadCandidates(tid, x)
				if len(cands) == 0 {
					continue
				}
				m := cands[rng.Intn(len(cands))]
				w := evOf[[2]int{int(x), int(m.T)}]
				l := lang.ReadLab(x, m.Val)
				if !g.RAGEnabled(int(tid), l, w) {
					t.Fatalf("iter %d: machine read of msg @%d not RAG-enabled from e%d:\n%s", iter, m.T, w, g)
				}
				st.Read(tid, m)
				g.Add(int(tid), l, w)
			default: // RMW
				cands := st.RMWCandidates(tid, x)
				if len(cands) == 0 {
					continue
				}
				m := cands[rng.Intn(len(cands))]
				w := evOf[[2]int{int(x), int(m.T)}]
				vW := lang.Val(rng.Intn(3))
				l := lang.RMWLab(x, m.Val, vW)
				if !g.RAGEnabled(int(tid), l, w) {
					t.Fatalf("iter %d: machine RMW of msg @%d not RAG-enabled from e%d:\n%s", iter, m.T, w, g)
				}
				st.RMW(tid, m, vW)
				evOf[[2]int{int(x), int(m.T) + 1}] = g.Add(int(tid), l, w)
			}
			if !g.RAConsistent() {
				t.Fatalf("iter %d: graph inconsistent after machine-aligned run:\n%s", iter, g)
			}
		}
	}
}

// TestCanonicalizePreservesOptions checks that canonicalization (dense
// re-ranking with clamped gaps) is a bisimulation for sufficiently large
// gap caps: the per-thread read, RMW and write-slot option multisets are
// unchanged.
func TestCanonicalizePreservesOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 300; iter++ {
		numT := 1 + rng.Intn(3)
		numL := 1 + rng.Intn(3)
		st := memra.New(numL, numT)
		for step := 0; step < 8+rng.Intn(8); step++ {
			tid := lang.Tid(rng.Intn(numT))
			x := lang.Loc(rng.Intn(numL))
			switch rng.Intn(3) {
			case 0:
				if slots := st.WriteSlots(tid, x, 4); len(slots) > 0 {
					st.Write(tid, x, lang.Val(rng.Intn(3)), slots[rng.Intn(len(slots))])
				}
			case 1:
				if c := st.ReadCandidates(tid, x); len(c) > 0 {
					st.Read(tid, c[rng.Intn(len(c))])
				}
			default:
				if c := st.RMWCandidates(tid, x); len(c) > 0 {
					st.RMW(tid, c[rng.Intn(len(c))], lang.Val(rng.Intn(3)))
				}
			}
		}
		type opts struct {
			reads, rmws, slots int
		}
		snapshot := func() []opts {
			var out []opts
			for tid := 0; tid < numT; tid++ {
				for x := 0; x < numL; x++ {
					out = append(out, opts{
						reads: len(st.ReadCandidates(lang.Tid(tid), lang.Loc(x))),
						rmws:  len(st.RMWCandidates(lang.Tid(tid), lang.Loc(x))),
						slots: len(st.WriteSlots(lang.Tid(tid), lang.Loc(x), 3)),
					})
				}
			}
			return out
		}
		before := snapshot()
		st.Canonicalize(64) // large cap: no gap is clamped below its size
		after := snapshot()
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("iter %d: option counts changed by canonicalization: %+v -> %+v", iter, before[i], after[i])
			}
		}
	}
}

// TestCanonicalizeIdempotent checks canonicalize ∘ canonicalize =
// canonicalize (same cap).
func TestCanonicalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 200; iter++ {
		st := memra.New(2, 2)
		for step := 0; step < 10; step++ {
			tid := lang.Tid(rng.Intn(2))
			x := lang.Loc(rng.Intn(2))
			if slots := st.WriteSlots(tid, x, 5); len(slots) > 0 {
				st.Write(tid, x, lang.Val(rng.Intn(2)), slots[rng.Intn(len(slots))])
			}
		}
		st.Canonicalize(3)
		once := string(st.Encode(nil))
		st.Canonicalize(3)
		if got := string(st.Encode(nil)); got != once {
			t.Fatalf("iter %d: canonicalization not idempotent", iter)
		}
	}
}

// TestDecodeRoundTrip checks Decode inverts Encode on random reachable
// states, decoding into a reused state whose message count differs.
func TestDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	into := memra.New(2, 2)
	for iter := 0; iter < 200; iter++ {
		st := memra.New(2, 2)
		for step := rng.Intn(10); step > 0; step-- {
			tid := lang.Tid(rng.Intn(2))
			x := lang.Loc(rng.Intn(2))
			if slots := st.WriteSlots(tid, x, 5); len(slots) > 0 {
				st.Write(tid, x, lang.Val(rng.Intn(2)), slots[rng.Intn(len(slots))])
			}
		}
		enc := st.Encode(nil)
		if n := into.Decode(enc); n != len(enc) {
			t.Fatalf("iter %d: Decode consumed %d of %d bytes", iter, n, len(enc))
		}
		if got := string(into.Encode(nil)); got != string(enc) {
			t.Fatalf("iter %d: decoded state re-encodes differently", iter)
		}
	}
}
