// Package scm implements SCM, the finite instrumented sequentially
// consistent memory of §5 of the paper — its primary contribution. SCM
// simulates SCG (it has exactly SC's traces) while tracking, in finitely
// many bits, the properties of the underlying execution graph needed to
// monitor execution-graph robustness against RA (Theorem 5.3) and data
// races on non-atomic locations (Theorem 6.2).
//
// A state carries eight tracking components beyond the plain SC memory M:
//
//	VSC : Tid → P(Loc)        x ∈ VSC(τ)  iff τ is hbSC-aware of wmax_x
//	MSC : Loc → P(Loc)        y ∈ MSC(x)  iff wmax_y has an hbSC-path to
//	                          some access of x
//	WSC : Loc → P(Loc)        y ∈ WSC(x)  iff wmax_y has an hbSC?-path to
//	                          wmax_x
//	V   : Tid → Loc → P(Val)  values of non-mo-maximal writes to x that
//	                          thread τ could still read under RAG
//	W   : Loc → Loc → P(Val)  values of non-maximal writes to y not
//	                          mo;hb?-before wmax_x
//	VRMW, WRMW                as V, W but further excluding writes already
//	                          read by an RMW (candidates for write/RMW
//	                          predecessor writes)
//
// plus, under the §5.1 abstract value management, four summary components
// CV, CW, CVRMW, CWRMW : P(Loc) that record, disjunctively, the presence of
// non-critical values in the corresponding V/W/VRMW/WRMW sets, which are
// themselves restricted to the critical values Val(P, x) (Definition 5.5).
// Running with every value critical yields exactly the unoptimized §5
// construction (the summaries stay empty invariantly).
//
// All location sets and value sets are uint64 bitsets, laid out in one flat
// slice per state (the verifier clones and hashes millions of these), so a
// full SCM state costs O(|Tid|·|Loc| + |Loc|²) words, matching the §5.1
// metadata-size analysis (see Bits).
package scm

import (
	"repro/internal/lang"
)

// Monitor holds the static configuration of the instrumented memory: the
// shape of the program, the critical-value assignment, and the layout of
// the flat state vector.
type Monitor struct {
	T, L     int      // |Tid|, |Loc|
	ValCount int      // |Val|
	Crit     []uint64 // per location: bitmask of critical values (§5.1)
	NA       []bool   // per location: non-atomic? (§6)
	// SRA switches the robustness conditions to the SRA model (an
	// extension in the direction of the paper's §9): under SRA, writes
	// and RMW-writes are placed mo-maximally, so only the read-type
	// conditions of Theorem 5.3 can witness non-robustness. The tracked
	// components are unchanged — they are properties of the SC runs.
	SRA bool
	// Tracked restricts instrumentation to a subset of locations (the
	// static pre-pass of internal/analysis). The monitor state is a
	// direct product of per-location "planes" — for location y: the
	// y-bits of VSC/CV/CVR/CW/CWR, the y-columns of the MSC/WSC rows,
	// and the V/VR/W/WR (·)(y) value sets — and every transition updates
	// each plane from that plane alone. Masking untracked planes to zero
	// therefore leaves tracked planes bit-identical to the full monitor
	// along every SC run, while CheckOp at an untracked location
	// self-disables through its VSC guard. Sound whenever no robustness
	// violation can be flagged at an untracked location (the conflict
	// cycle criterion of internal/analysis). NewMonitor defaults it to
	// all locations = the unoptimized construction.
	Tracked uint64

	// Offsets into State.B of each component.
	oVSC, oMSC, oWSC     int // loc-sets: [T], [L], [L]
	oV, oVR              int // val-sets: [T*L] each, index τ*L+x
	oW, oWR              int // val-sets: [L*L] each, index z*L+y
	oCV, oCVR, oCW, oCWR int // loc-sets: [T], [T], [L], [L]
	words                int // total length of B
	allLocs              uint64
}

// NewMonitor builds a monitor for a program shape. crit must have one mask
// per location (use prog.CriticalVals for the §5.1 abstraction or
// prog.FullCriticalVals for full tracking); na may be nil when every
// location is release/acquire.
func NewMonitor(numThreads, numLocs, valCount int, crit []uint64, na []bool) *Monitor {
	if na == nil {
		na = make([]bool, numLocs)
	}
	m := &Monitor{T: numThreads, L: numLocs, ValCount: valCount, Crit: crit, NA: na}
	T, L := numThreads, numLocs
	off := 0
	next := func(n int) int { o := off; off += n; return o }
	m.oVSC = next(T)
	m.oMSC = next(L)
	m.oWSC = next(L)
	m.oV = next(T * L)
	m.oVR = next(T * L)
	m.oW = next(L * L)
	m.oWR = next(L * L)
	m.oCV = next(T)
	m.oCVR = next(T)
	m.oCW = next(L)
	m.oCWR = next(L)
	m.words = off
	if L == 64 {
		m.allLocs = ^uint64(0)
	} else {
		m.allLocs = uint64(1)<<L - 1
	}
	m.Tracked = m.allLocs
	return m
}

// State is a state of SCM:
// I = ⟨M, VSC, MSC, WSC, V, W, VRMW, WRMW⟩ (+ the §5.1 summaries), stored
// as the SC memory M plus one flat bitset vector B laid out per the
// monitor's offsets.
type State struct {
	M []lang.Val
	B []uint64
}

// Component accessors (by value; use the returned indices for writes).

// VSC returns the hbSC-awareness set of thread t as a Loc bitset.
func (mon *Monitor) VSC(s *State, t int) uint64 { return s.B[mon.oVSC+t] }

// V returns V(t)(x) as a Val bitset.
func (mon *Monitor) V(s *State, t, x int) uint64 { return s.B[mon.oV+t*mon.L+x] }

// VR returns VRMW(t)(x) as a Val bitset.
func (mon *Monitor) VR(s *State, t, x int) uint64 { return s.B[mon.oVR+t*mon.L+x] }

// W returns W(z)(y) as a Val bitset.
func (mon *Monitor) W(s *State, z, y int) uint64 { return s.B[mon.oW+z*mon.L+y] }

// WR returns WRMW(z)(y) as a Val bitset.
func (mon *Monitor) WR(s *State, z, y int) uint64 { return s.B[mon.oWR+z*mon.L+y] }

// MSC returns MSC(x) as a Loc bitset.
func (mon *Monitor) MSC(s *State, x int) uint64 { return s.B[mon.oMSC+x] }

// WSC returns WSC(x) as a Loc bitset.
func (mon *Monitor) WSC(s *State, x int) uint64 { return s.B[mon.oWSC+x] }

// CV returns the CV summary of thread t as a Loc bitset.
func (mon *Monitor) CV(s *State, t int) uint64 { return s.B[mon.oCV+t] }

// CVR returns the CVRMW summary of thread t as a Loc bitset.
func (mon *Monitor) CVR(s *State, t int) uint64 { return s.B[mon.oCVR+t] }

// CW returns the CW summary of location z as a Loc bitset.
func (mon *Monitor) CW(s *State, z int) uint64 { return s.B[mon.oCW+z] }

// CWR returns the CWRMW summary of location z as a Loc bitset.
func (mon *Monitor) CWR(s *State, z int) uint64 { return s.B[mon.oCWR+z] }

// Init returns SCM's initial state: M = λx.0; VSC = λτ.Loc;
// MSC = WSC = λx.{x}; all value-tracking components empty (§5).
func (mon *Monitor) Init() *State {
	s := &State{
		M: make([]lang.Val, mon.L),
		B: make([]uint64, mon.words),
	}
	mon.Reset(s)
	return s
}

// Reset overwrites s, a state of this monitor, with the initial state.
func (mon *Monitor) Reset(s *State) {
	clear(s.M)
	clear(s.B)
	for t := 0; t < mon.T; t++ {
		s.B[mon.oVSC+t] = mon.allLocs & mon.Tracked
	}
	for x := 0; x < mon.L; x++ {
		s.B[mon.oMSC+x] = (1 << x) & mon.Tracked
		s.B[mon.oWSC+x] = (1 << x) & mon.Tracked
	}
}

// Clone returns a deep copy.
func (s *State) Clone() *State {
	return &State{
		M: append([]lang.Val(nil), s.M...),
		B: append([]uint64(nil), s.B...),
	}
}

// CopyFrom overwrites s with o (same monitor shape assumed).
func (s *State) CopyFrom(o *State) {
	copy(s.M, o.M)
	copy(s.B, o.B)
}

// Step applies the SCM transition ⟨τ, l⟩ in place. The label must be
// SC-enabled (reads and RMWs must read M[loc]); Step panics otherwise,
// since the caller (the explorer) only generates SC-enabled labels.
//
// Accesses to non-atomic locations update only M: per §6, the monitoring
// instrumentation applies only to release/acquire locations, and racy
// programs are rejected by the separate racy-state check, which makes
// ignoring NA-induced hbSC edges sound (race-free programs have their
// NA mo/fr edges covered by tracked hb paths).
func (mon *Monitor) Step(s *State, tid lang.Tid, l lang.Label) {
	x := int(l.Loc)
	if mon.NA[x] {
		switch l.Typ {
		case lang.LWrite:
			s.M[x] = l.VW
		case lang.LRead:
			if s.M[x] != l.VR {
				panic("scm: NA read of non-current value")
			}
		default:
			panic("scm: RMW on non-atomic location")
		}
		return
	}
	switch l.Typ {
	case lang.LWrite:
		mon.stepWrite(s, int(tid), x, l.VW)
	case lang.LRead:
		if s.M[x] != l.VR {
			panic("scm: read of non-current value")
		}
		mon.stepRead(s, int(tid), x)
	case lang.LRMW:
		if s.M[x] != l.VR {
			panic("scm: RMW read of non-current value")
		}
		mon.stepRMW(s, int(tid), x, l.VW)
	}
}

// stepWrite implements the ⟨τ, W(x, v)⟩ columns of Figures 5 and 6 and of
// the Appendix C table. vR denotes the overwritten value M(x) — the value
// of the write that stops being mo-maximal.
func (mon *Monitor) stepWrite(s *State, tau, x int, v lang.Val) {
	T, L := mon.T, mon.L
	xb := uint64(1) << x
	vR := s.M[x]
	vrCrit := mon.Crit[x]&(1<<vR) != 0
	var vrBit uint64
	if vrCrit {
		vrBit = 1 << vR
	}
	if mon.Tracked&xb == 0 {
		// Untracked plane: record neither the stale value (vrBit) nor
		// the non-critical summary bit (vrCrit = true suppresses the
		// CV/CW updates), keeping the plane identically zero.
		vrBit, vrCrit = 0, true
	}
	B := s.B

	// Figure 5: hbSC tracking. Snapshot the pre-state values used on the
	// right-hand sides.
	oldVSCt := B[mon.oVSC+tau]
	oldMSCx := B[mon.oMSC+x]
	for p := 0; p < T; p++ {
		if p == tau {
			B[mon.oVSC+p] = oldVSCt | oldMSCx
		} else {
			B[mon.oVSC+p] &^= xb
		}
	}
	for y := 0; y < L; y++ {
		if y == x {
			B[mon.oMSC+y] = oldMSCx | oldVSCt
			B[mon.oWSC+y] = oldMSCx | oldVSCt
		} else {
			B[mon.oMSC+y] &^= xb
			B[mon.oWSC+y] &^= xb
		}
	}

	// Figure 6 / Appendix C: RAG tracking. The row W′(x)(·) is overwritten
	// with V(τ)(·) (and WRMW′(x)(·) with VRMW(τ)(·)); copy those rows
	// before mutating V.
	copy(B[mon.oW+x*L:mon.oW+(x+1)*L], B[mon.oV+tau*L:mon.oV+(tau+1)*L])
	copy(B[mon.oWR+x*L:mon.oWR+(x+1)*L], B[mon.oVR+tau*L:mon.oVR+(tau+1)*L])
	B[mon.oW+x*L+x] = 0
	B[mon.oWR+x*L+x] = 0
	oldCVt := B[mon.oCV+tau]
	oldCVRt := B[mon.oCVR+tau]

	for p := 0; p < T; p++ {
		if p == tau {
			B[mon.oV+p*L+x] = 0
			B[mon.oVR+p*L+x] = 0
			B[mon.oCV+p] &^= xb
			B[mon.oCVR+p] &^= xb
		} else {
			B[mon.oV+p*L+x] |= vrBit
			B[mon.oVR+p*L+x] |= vrBit
			if !vrCrit {
				B[mon.oCV+p] |= xb
				B[mon.oCVR+p] |= xb
			}
		}
	}
	for z := 0; z < L; z++ {
		if z == x {
			B[mon.oCW+z] = oldCVt &^ xb
			B[mon.oCWR+z] = oldCVRt &^ xb
		} else {
			B[mon.oW+z*L+x] |= vrBit
			B[mon.oWR+z*L+x] |= vrBit
			if !vrCrit {
				B[mon.oCW+z] |= xb
				B[mon.oCWR+z] |= xb
			}
		}
	}

	s.M[x] = v
}

// stepRead implements the ⟨τ, R(x, v)⟩ columns of Figures 5 and 6 and of
// the Appendix C table.
func (mon *Monitor) stepRead(s *State, tau, x int) {
	L := mon.L
	B := s.B
	oldVSCt := B[mon.oVSC+tau]
	B[mon.oVSC+tau] = oldVSCt | B[mon.oWSC+x]
	B[mon.oMSC+x] |= oldVSCt
	for y := 0; y < L; y++ {
		B[mon.oV+tau*L+y] &= B[mon.oW+x*L+y]
		B[mon.oVR+tau*L+y] &= B[mon.oWR+x*L+y]
	}
	B[mon.oCV+tau] &= B[mon.oCW+x]
	B[mon.oCVR+tau] &= B[mon.oCWR+x]
}

// stepRMW implements the ⟨τ, RMW(x, vR, vW)⟩ columns of Figures 5 and 6 and
// of the Appendix C table; vR = M(x) is the read (and overwritten) value.
func (mon *Monitor) stepRMW(s *State, tau, x int, vW lang.Val) {
	T, L := mon.T, mon.L
	xb := uint64(1) << x
	vR := s.M[x]
	vrCrit := mon.Crit[x]&(1<<vR) != 0
	var vrBit uint64
	if vrCrit {
		vrBit = 1 << vR
	}
	if mon.Tracked&xb == 0 {
		// Untracked plane: record neither the stale value (vrBit) nor
		// the non-critical summary bit (vrCrit = true suppresses the
		// CV/CW updates), keeping the plane identically zero.
		vrBit, vrCrit = 0, true
	}
	B := s.B

	// Figure 5 treats RMWs exactly like writes.
	oldVSCt := B[mon.oVSC+tau]
	oldMSCx := B[mon.oMSC+x]
	for p := 0; p < T; p++ {
		if p == tau {
			B[mon.oVSC+p] = oldVSCt | oldMSCx
		} else {
			B[mon.oVSC+p] &^= xb
		}
	}
	for y := 0; y < L; y++ {
		if y == x {
			B[mon.oMSC+y] = oldMSCx | oldVSCt
			B[mon.oWSC+y] = oldMSCx | oldVSCt
		} else {
			B[mon.oMSC+y] &^= xb
			B[mon.oWSC+y] &^= xb
		}
	}

	// Figure 6 / Appendix C, RMW column. The new V(τ) and W(x) rows are
	// both the intersection of the old ones (similarly for the RMW
	// variants), so compute them jointly.
	oldCVt, oldCVRt := B[mon.oCV+tau], B[mon.oCVR+tau]
	oldCWx, oldCWRx := B[mon.oCW+x], B[mon.oCWR+x]
	for y := 0; y < L; y++ {
		vi := B[mon.oV+tau*L+y] & B[mon.oW+x*L+y]
		B[mon.oV+tau*L+y] = vi
		B[mon.oW+x*L+y] = vi
		ri := B[mon.oVR+tau*L+y] & B[mon.oWR+x*L+y]
		B[mon.oVR+tau*L+y] = ri
		B[mon.oWR+x*L+y] = ri
	}
	B[mon.oW+x*L+x] = 0
	B[mon.oWR+x*L+x] = 0
	B[mon.oV+tau*L+x] = 0 // W(x)(x) is invariantly ∅, so the intersection is ∅
	B[mon.oVR+tau*L+x] = 0
	B[mon.oCV+tau] = oldCVt & oldCWx
	B[mon.oCW+x] = (oldCWx & oldCVt) &^ xb
	B[mon.oCVR+tau] = oldCVRt & oldCWRx
	B[mon.oCWR+x] = (oldCWRx & oldCVRt) &^ xb

	// vR becomes readable-stale for the other threads (V/W/CV/CW), but is
	// not a write-predecessor candidate (it was read by this RMW), so the
	// RMW-variants do not gain it.
	for p := 0; p < T; p++ {
		if p != tau {
			B[mon.oV+p*L+x] |= vrBit
			if !vrCrit {
				B[mon.oCV+p] |= xb
			}
		}
	}
	for z := 0; z < L; z++ {
		if z != x {
			B[mon.oW+z*L+x] |= vrBit
			if !vrCrit {
				B[mon.oCW+z] |= xb
			}
		}
	}

	s.M[x] = vW
}

// Encode appends the canonical byte encoding of the state to dst, for
// visited-set hashing and frontier storage. Component widths are fixed by
// the monitor shape, so equal encodings mean equal states. Each bitset is
// stored in the minimal number of bytes for its width.
func (mon *Monitor) Encode(dst []byte, s *State) []byte {
	for _, v := range s.M {
		dst = append(dst, byte(v))
	}
	locBytes := (mon.L + 7) / 8
	valBytes := (mon.ValCount + 7) / 8
	emit := func(off, n, width int) {
		for i := 0; i < n; i++ {
			b := s.B[off+i]
			for k := 0; k < width; k++ {
				dst = append(dst, byte(b))
				b >>= 8
			}
		}
	}
	emit(mon.oVSC, mon.T, locBytes)
	emit(mon.oMSC, mon.L, locBytes)
	emit(mon.oWSC, mon.L, locBytes)
	emit(mon.oV, mon.T*mon.L, valBytes)
	emit(mon.oVR, mon.T*mon.L, valBytes)
	emit(mon.oW, mon.L*mon.L, valBytes)
	emit(mon.oWR, mon.L*mon.L, valBytes)
	emit(mon.oCV, mon.T, locBytes)
	emit(mon.oCVR, mon.T, locBytes)
	emit(mon.oCW, mon.L, locBytes)
	emit(mon.oCWR, mon.L, locBytes)
	return dst
}

// Decode reconstructs a state from an Encode buffer, returning the number
// of bytes consumed.
func (mon *Monitor) Decode(data []byte, s *State) int {
	if s.M == nil {
		s.M = make([]lang.Val, mon.L)
		s.B = make([]uint64, mon.words)
	}
	p := 0
	for i := 0; i < mon.L; i++ {
		s.M[i] = lang.Val(data[p])
		p++
	}
	locBytes := (mon.L + 7) / 8
	valBytes := (mon.ValCount + 7) / 8
	read := func(off, n, width int) {
		for i := 0; i < n; i++ {
			var b uint64
			for k := 0; k < width; k++ {
				b |= uint64(data[p]) << (8 * k)
				p++
			}
			s.B[off+i] = b
		}
	}
	read(mon.oVSC, mon.T, locBytes)
	read(mon.oMSC, mon.L, locBytes)
	read(mon.oWSC, mon.L, locBytes)
	read(mon.oV, mon.T*mon.L, valBytes)
	read(mon.oVR, mon.T*mon.L, valBytes)
	read(mon.oW, mon.L*mon.L, valBytes)
	read(mon.oWR, mon.L*mon.L, valBytes)
	read(mon.oCV, mon.T, locBytes)
	read(mon.oCVR, mon.T, locBytes)
	read(mon.oCW, mon.L, locBytes)
	read(mon.oCWR, mon.L, locBytes)
	return p
}

// EncodedLen returns the length Encode produces for this monitor shape.
func (mon *Monitor) EncodedLen() int {
	locBytes := (mon.L + 7) / 8
	valBytes := (mon.ValCount + 7) / 8
	return mon.L +
		locBytes*(3*mon.T+4*mon.L) +
		valBytes*(2*mon.T*mon.L+2*mon.L*mon.L)
}

// Bits returns the size in bits of the monitoring metadata (excluding M),
// matching the §5.1 count
//
//	3·|Tid|·|Loc| + 4·|Loc|² + 2·(|Tid|+|Loc|)·Σ_x |Val(P,x)|
//
// (VSC, CV and CVRMW contribute 3·|Tid|·|Loc|; MSC, WSC, CW and CWRMW the
// 4·|Loc|²; V and VRMW |Tid|·Σ|Val(P,x)| each; W and WRMW |Loc|·Σ|Val(P,x)|
// each).
func (mon *Monitor) Bits() int {
	sum := 0
	for _, c := range mon.Crit {
		sum += popcount(c)
	}
	return 3*mon.T*mon.L + 4*mon.L*mon.L + 2*(mon.T+mon.L)*sum
}

func popcount(b uint64) int {
	n := 0
	for b != 0 {
		b &= b - 1
		n++
	}
	return n
}
