package memra_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lang"
	"repro/internal/memra"
)

// mkView builds a 4-location view from raw values.
func mkView(a, b, c, d uint16) memra.View {
	return memra.View{memra.Time(a), memra.Time(b), memra.Time(c), memra.Time(d)}
}

// TestViewJoinLattice property-checks that Join is the pointwise maximum:
// commutative, associative, idempotent, and an upper bound of both
// arguments — the lattice structure §3's view machinery relies on.
func TestViewJoinLattice(t *testing.T) {
	join := func(a, b memra.View) memra.View {
		c := a.Clone()
		c.Join(b)
		return c
	}
	eq := func(a, b memra.View) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	leq := func(a, b memra.View) bool {
		for i := range a {
			if a[i] > b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func(a1, a2, a3, a4, b1, b2, b3, b4 uint16) bool {
		a, b := mkView(a1, a2, a3, a4), mkView(b1, b2, b3, b4)
		return eq(join(a, b), join(b, a))
	}, nil); err != nil {
		t.Error("commutativity:", err)
	}
	if err := quick.Check(func(a1, a2, b1, b2, c1, c2 uint16) bool {
		a, b, c := mkView(a1, a2, 0, 0), mkView(b1, b2, 0, 0), mkView(c1, c2, 0, 0)
		return eq(join(join(a, b), c), join(a, join(b, c)))
	}, nil); err != nil {
		t.Error("associativity:", err)
	}
	if err := quick.Check(func(a1, a2, a3, a4 uint16) bool {
		a := mkView(a1, a2, a3, a4)
		return eq(join(a, a), a)
	}, nil); err != nil {
		t.Error("idempotence:", err)
	}
	if err := quick.Check(func(a1, a2, b1, b2 uint16) bool {
		a, b := mkView(a1, a2, 0, 0), mkView(b1, b2, 0, 0)
		j := join(a, b)
		return leq(a, j) && leq(b, j)
	}, nil); err != nil {
		t.Error("upper bound:", err)
	}
}

// TestThreadViewMonotone property-checks that a thread's view only ever
// grows along machine steps (the monotonicity that makes reads
// "downward-closed in the past").
func TestThreadViewMonotone(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		rng := newRand(seed)
		st := memra.New(2, 2)
		prev := [][]memra.Time{
			append([]memra.Time(nil), st.Views[0]...),
			append([]memra.Time(nil), st.Views[1]...),
		}
		for i := 0; i < int(steps%24); i++ {
			tid := rng.Intn(2)
			x := rng.Intn(2)
			switch rng.Intn(3) {
			case 0:
				stepRandom(rng, st, lTid(tid), writeOp(lLoc(x), 1), 3)
			case 1:
				stepRandom(rng, st, lTid(tid), readOp(lLoc(x)), 3)
			default:
				stepRandom(rng, st, lTid(tid), rmwOp(lLoc(x), 1), 3)
			}
			for tv := 0; tv < 2; tv++ {
				for loc := 0; loc < 2; loc++ {
					if st.Views[tv][loc] < prev[tv][loc] {
						return false
					}
					prev[tv][loc] = st.Views[tv][loc]
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Local helpers keeping the property bodies readable.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
func lTid(t int) lang.Tid           { return lang.Tid(t) }
func lLoc(x int) lang.Loc           { return lang.Loc(x) }
