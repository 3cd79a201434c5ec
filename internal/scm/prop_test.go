package scm_test

import (
	"math/rand"
	"testing"

	"repro/internal/egraph"
	"repro/internal/lang"
	"repro/internal/scm"
)

// TestStepMatchesGraphInterpretation is the repository's stand-in for the
// paper's Coq proof of Lemma 5.2: along random SCG runs, the incremental
// SCM transition rules (Figures 5 and 6 and the Appendix C table) maintain
// exactly the state I(G) defined by the formal component interpretations
// of §5, for arbitrary critical-value assignments (random masks cover the
// full spectrum from the unoptimized construction to maximal abstraction).
func TestStepMatchesGraphInterpretation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 400; iter++ {
		T := 1 + rng.Intn(3)
		L := 1 + rng.Intn(3)
		V := 2 + rng.Intn(3)
		mon := scm.NewMonitor(T, L, V, randomCrit(rng, L, V), nil)
		checkRunAgainstGraph(t, rng, iter, mon, 5+rng.Intn(15))
	}
}

// TestStepMatchesGraphInterpretationWide is the same property on shapes
// whose location or value words are wider than a byte, with runs long
// enough to reach the locations and values past the first byte.
func TestStepMatchesGraphInterpretationWide(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter, w := range wideShapes {
		steps := 40
		if w.L > 16 {
			steps = 20 // I(G) costs O(|Loc|²·|E|²) per step
		}
		for rep := 0; rep < 3; rep++ {
			mon := scm.NewMonitor(w.T, w.L, w.V, randomCrit(rng, w.L, w.V), nil)
			checkRunAgainstGraph(t, rng, iter*3+rep, mon, steps)
		}
	}
}

// randomCrit returns random critical masks for L locations over V values.
func randomCrit(rng *rand.Rand, L, V int) []uint64 {
	crit := make([]uint64, L)
	for x := range crit {
		crit[x] = rng.Uint64() & (uint64(1)<<V - 1)
	}
	return crit
}

// checkRunAgainstGraph drives a random SCG run of the given length on mon
// and checks the incremental state against I(G) after every step.
func checkRunAgainstGraph(t *testing.T, rng *rand.Rand, iter int, mon *scm.Monitor, steps int) {
	t.Helper()
	T, L, V := mon.T, mon.L, mon.ValCount
	g := egraph.NewGraph(L, nil)
	s := mon.Init()
	if !s.Equal(mon.FromGraph(g)) {
		t.Fatalf("iter %d: initial state mismatch", iter)
	}
	for i := 0; i < steps; i++ {
		tid := rng.Intn(T)
		x := lang.Loc(rng.Intn(L))
		cur := g.Events[g.WMax(x)].Lab.VW
		var l lang.Label
		switch rng.Intn(3) {
		case 0:
			l = lang.WriteLab(x, lang.Val(rng.Intn(V)))
		case 1:
			l = lang.ReadLab(x, cur)
		default:
			l = lang.RMWLab(x, cur, lang.Val(rng.Intn(V)))
		}
		g.SCGStep(tid, l)
		mon.Step(s, lang.Tid(tid), l)
		if want := mon.FromGraph(g); !s.Equal(want) {
			t.Fatalf("iter %d step %d (%s by τ%d): incremental state diverged from I(G)\ngraph:\n%s",
				iter, i, l, tid, g)
		}
	}
}

// TestEncodeDecodeRoundTrip checks that Encode/Decode are inverse on
// states produced by random runs, and that EncodedLen matches.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		T := 1 + rng.Intn(4)
		L := 1 + rng.Intn(5)
		V := 2 + rng.Intn(7)
		crit := make([]uint64, L)
		for x := range crit {
			crit[x] = uint64(1)<<V - 1
		}
		mon := scm.NewMonitor(T, L, V, crit, nil)
		s := mon.Init()
		for i := 0; i < 20; i++ {
			tid := lang.Tid(rng.Intn(T))
			x := lang.Loc(rng.Intn(L))
			cur := s.M[x]
			switch rng.Intn(3) {
			case 0:
				mon.Step(s, tid, lang.WriteLab(x, lang.Val(rng.Intn(V))))
			case 1:
				mon.Step(s, tid, lang.ReadLab(x, cur))
			default:
				mon.Step(s, tid, lang.RMWLab(x, cur, lang.Val(rng.Intn(V))))
			}
		}
		enc := mon.Encode(nil, s)
		if len(enc) != mon.EncodedLen() {
			t.Fatalf("EncodedLen=%d but Encode produced %d bytes", mon.EncodedLen(), len(enc))
		}
		var back scm.State
		n := mon.Decode(enc, &back)
		if n != len(enc) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(enc))
		}
		if !s.Equal(&back) {
			t.Fatalf("decode(encode(s)) != s")
		}
	}
}

// TestMetadataBits checks the §5.1 metadata-size formula on a few shapes:
// with no critical values the size is 3|Tid||Loc| + 4|Loc|²; with all
// values critical it is |Loc|(3|Tid| + 4|Loc| + 2|Val|(|Tid| + |Loc|)),
// which matches the worst case quoted in §5.1 up to the CV/CW summary bits
// the optimized representation always carries.
func TestMetadataBits(t *testing.T) {
	for _, tc := range []struct {
		T, L, V  int
		critical int // number of critical values per location
		want     int
	}{
		{2, 3, 4, 0, 3*2*3 + 4*3*3},
		{3, 5, 4, 0, 3*3*5 + 4*5*5},
		{2, 2, 4, 4, 3*2*2 + 4*2*2 + 2*(2+2)*(2*4)},
	} {
		crit := make([]uint64, tc.L)
		for x := range crit {
			crit[x] = uint64(1)<<tc.critical - 1
		}
		mon := scm.NewMonitor(tc.T, tc.L, tc.V, crit, nil)
		if got := mon.Bits(); got != tc.want {
			t.Errorf("Bits(T=%d,L=%d,crit=%d) = %d, want %d", tc.T, tc.L, tc.critical, got, tc.want)
		}
	}
}
