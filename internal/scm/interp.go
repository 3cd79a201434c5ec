package scm

import (
	"bytes"

	"repro/internal/egraph"
	"repro/internal/lang"
)

// FromGraph computes the SCM state I(G) that corresponds to an execution
// graph per the formal component interpretations of §5:
//
//	M(G)      = λx. valW(wmax_x)
//	VSC(G)    = λτ. {x | wmax_x ∈ dom(hbSC? ; [Init ∪ E_τ])}
//	MSC(G)    = λx. {y | wmax_y ∈ dom(hbSC? ; [E_x])}
//	WSC(G)    = λx. {y | ⟨wmax_y, wmax_x⟩ ∈ hbSC?}
//	V(G)      = λτ, x. valW[Wx \ dom(R ; [E_τ])]
//	W(G)      = λy, x. valW[Wx \ dom(R ; [{wmax_y}])]
//	VRMW(G)   = λτ, x. valW[Wx \ dom(R ; [E_τ] ∪ RRMW)]
//	WRMW(G)   = λy, x. valW[Wx \ dom(R ; [{wmax_y}] ∪ RRMW)]
//
// where Wx = G.W_x \ {wmax_x}, R = G.mo ; G.hb?, and
// RRMW = G.mo|imm ; [RMW]; plus the §5.1 summaries CV/CW/CVRMW/CWRMW
// collecting the non-critical leftovers. The V/W components of the
// returned state are restricted to the monitor's critical values, matching
// what the incremental transitions maintain.
//
// This function is the specification against which the incremental Step
// rules are property-tested (the repository's stand-in for the paper's Coq
// proof of Lemma 5.2). It only supports graphs whose locations are all
// release/acquire.
func (mon *Monitor) FromGraph(g *egraph.Graph) *State {
	s := mon.Init()
	n := g.N()
	hb := g.HB()
	hbSC := g.HBSC()

	for x := 0; x < mon.L; x++ {
		s.M[x] = g.Events[g.WMax(lang.Loc(x))].Lab.VW
	}

	// hbSC?-reachability helper.
	reaches := func(a, b int) bool { return a == b || hbSC.Has(a, b) }

	// VSC.
	for t := 0; t < mon.T; t++ {
		var set uint64
		for x := 0; x < mon.L; x++ {
			w := g.WMax(lang.Loc(x))
			ok := g.Events[w].IsInit()
			for e := 0; e < n && !ok; e++ {
				if (g.Events[e].Tid == t || g.Events[e].IsInit()) && reaches(w, e) {
					ok = true
				}
			}
			if ok {
				set |= 1 << x
			}
		}
		store(mon.locs(s, mon.oVSC, t), set)
	}
	// MSC and WSC.
	for x := 0; x < mon.L; x++ {
		var msc, wsc uint64
		wmx := g.WMax(lang.Loc(x))
		for y := 0; y < mon.L; y++ {
			wmy := g.WMax(lang.Loc(y))
			for e := 0; e < n; e++ {
				if g.Events[e].Lab.Loc == lang.Loc(x) && reaches(wmy, e) {
					msc |= 1 << y
					break
				}
			}
			if reaches(wmy, wmx) {
				wsc |= 1 << y
			}
		}
		store(mon.locs(s, mon.oMSC, x), msc)
		store(mon.locs(s, mon.oWSC, x), wsc)
	}

	// R = mo ; hb? as a predicate: moHB(w, e).
	moHB := func(w, e int) bool {
		for b := 0; b < n; b++ {
			if g.MOBefore(w, b) && (b == e || hb.Has(b, e)) {
				return true
			}
		}
		return false
	}
	// RRMW: w ∈ dom(mo|imm ; [RMW]).
	inRRMW := func(w int) bool { return g.ReadByRMW(w) }

	// Value components. We first compute the full-value interpretation,
	// then split into critical bits and non-critical summaries.
	for x := 0; x < mon.L; x++ {
		wmx := g.WMax(lang.Loc(x))
		for _, w := range g.MO[x] {
			if w == wmx {
				continue
			}
			val := g.Events[w].Lab.VW
			crit := mon.Crit[x]>>val&1 != 0
			rmwOK := !inRRMW(w)
			// Per thread: is w unobserved by τ?
			for t := 0; t < mon.T; t++ {
				obs := false
				for e := 0; e < n && !obs; e++ {
					if g.Events[e].Tid == t && moHB(w, e) {
						obs = true
					}
				}
				if obs {
					continue
				}
				if crit {
					setBit(s, mon.oV+(t*mon.L+x)*mon.vw, int(val))
				} else {
					setBit(s, mon.oCV+t*mon.lw, x)
				}
				if rmwOK {
					if crit {
						setBit(s, mon.oVR+(t*mon.L+x)*mon.vw, int(val))
					} else {
						setBit(s, mon.oCVR+t*mon.lw, x)
					}
				}
			}
			// Per via-location y: is w not mo;hb?-before wmax_y?
			for y := 0; y < mon.L; y++ {
				wmy := g.WMax(lang.Loc(y))
				if moHB(w, wmy) {
					continue
				}
				if crit {
					setBit(s, mon.oW+(y*mon.L+x)*mon.vw, int(val))
				} else {
					setBit(s, mon.oCW+y*mon.lw, x)
				}
				if rmwOK {
					if crit {
						setBit(s, mon.oWR+(y*mon.L+x)*mon.vw, int(val))
					} else {
						setBit(s, mon.oCWR+y*mon.lw, x)
					}
				}
			}
		}
	}
	return s
}

// Equal reports whether two states are component-wise equal.
func (s *State) Equal(o *State) bool { return bytes.Equal(s.b, o.b) }
