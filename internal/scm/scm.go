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
// A state is stored as its own canonical encoding, the key the verifier
// interns it under: the memory M, one byte per location, then every
// component word in the order VSC, MSC, WSC, V, VRMW, W, WRMW, CV, CVRMW,
// CW, CWRMW. A location set is a little-endian word of ⌈|Loc|/8⌉ bytes
// (location x is bit x%8 of byte x/8), a value set one of ⌈|Val|/8⌉ bytes;
// both are one byte wide whenever |Loc| ≤ 8 and |Val| ≤ 8. The transition
// rules and the robustness checks operate on these bytes in place, with
// the widths as parameters of the monitor — one implementation for every
// shape — so the verifier checks a state by viewing its key and steps a
// successor in the key buffer it interns. A state costs
// O(|Tid|·|Loc| + |Loc|²) words, matching the §5.1 metadata-size analysis
// (see Bits); the encoding keeps whole bytes per word rather than the
// Bits-sized bit packing, which is slower to step.
package scm

import (
	"bytes"
	"unsafe"

	"repro/internal/lang"
)

// Monitor holds the static configuration of the instrumented memory: the
// shape of the program, the critical-value assignment, and the layout of
// the state encoding.
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

	lw, vw int // bytes per location-set word and per value-set word
	rl     int // bytes per V/VR/W/WR row: L value-set words

	// Byte offsets into the encoding of each component; M is at 0.
	oVSC, oMSC, oWSC     int // loc-sets: [T], [L], [L]
	oV, oVR              int // val-sets: [T*L] each, index τ*L+x
	oW, oWR              int // val-sets: [L*L] each, index z*L+y
	oCV, oCVR, oCW, oCWR int // loc-sets: [T], [T], [L], [L]
	size                 int // length of the encoding
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
	m.lw, m.vw = (L+7)/8, (valCount+7)/8
	m.rl = L * m.vw
	off := L
	next := func(n, w int) int { o := off; off += n * w; return o }
	m.oVSC = next(T, m.lw)
	m.oMSC = next(L, m.lw)
	m.oWSC = next(L, m.lw)
	m.oV = next(T*L, m.vw)
	m.oVR = next(T*L, m.vw)
	m.oW = next(L*L, m.vw)
	m.oWR = next(L*L, m.vw)
	m.oCV = next(T, m.lw)
	m.oCVR = next(T, m.lw)
	m.oCW = next(L, m.lw)
	m.oCWR = next(L, m.lw)
	m.size = off
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
// as its encoding (see the package comment). M views the encoding's first
// |Loc| bytes, so writes to M write the encoding.
type State struct {
	M []lang.Val
	b []byte
}

// A memory value is one byte of the encoding.
var _ [1]struct{} = [unsafe.Sizeof(lang.Val(0))]struct{}{}

// stateIn returns the state stored in b, which it aliases; its memory is
// the first nLocs bytes.
func stateIn(b []byte, nLocs int) State {
	return State{M: unsafe.Slice((*lang.Val)(unsafe.SliceData(b)), nLocs), b: b}
}

// load returns the little-endian word stored in b.
func load(b []byte) uint64 {
	var w uint64
	for i := len(b) - 1; i >= 0; i-- {
		w = w<<8 | uint64(b[i])
	}
	return w
}

// store writes the low len(b) bytes of w into b, little-endian.
func store(b []byte, w uint64) {
	for i := range b {
		b[i] = byte(w)
		w >>= 8
	}
}

// bit returns the byte offset and the mask of bit i of the word at off.
func bit(off, i int) (int, byte) { return off + i>>3, 1 << (i & 7) }

// setBit sets bit i of the word at byte offset off of s.
func setBit(s *State, off, i int) {
	o, m := bit(off, i)
	s.b[o] |= m
}

// locs returns location-set word i of the component at off.
func (mon *Monitor) locs(s *State, off, i int) []byte {
	o := off + i*mon.lw
	return s.b[o : o+mon.lw]
}

// vals returns value-set word i of the component at off.
func (mon *Monitor) vals(s *State, off, i int) []byte {
	o := off + i*mon.vw
	return s.b[o : o+mon.vw]
}

// Component accessors (by value).

// VSC returns the hbSC-awareness set of thread t as a Loc bitset.
func (mon *Monitor) VSC(s *State, t int) uint64 { return load(mon.locs(s, mon.oVSC, t)) }

// V returns V(t)(x) as a Val bitset.
func (mon *Monitor) V(s *State, t, x int) uint64 { return load(mon.vals(s, mon.oV, t*mon.L+x)) }

// VR returns VRMW(t)(x) as a Val bitset.
func (mon *Monitor) VR(s *State, t, x int) uint64 { return load(mon.vals(s, mon.oVR, t*mon.L+x)) }

// W returns W(z)(y) as a Val bitset.
func (mon *Monitor) W(s *State, z, y int) uint64 { return load(mon.vals(s, mon.oW, z*mon.L+y)) }

// WR returns WRMW(z)(y) as a Val bitset.
func (mon *Monitor) WR(s *State, z, y int) uint64 { return load(mon.vals(s, mon.oWR, z*mon.L+y)) }

// MSC returns MSC(x) as a Loc bitset.
func (mon *Monitor) MSC(s *State, x int) uint64 { return load(mon.locs(s, mon.oMSC, x)) }

// WSC returns WSC(x) as a Loc bitset.
func (mon *Monitor) WSC(s *State, x int) uint64 { return load(mon.locs(s, mon.oWSC, x)) }

// CV returns the CV summary of thread t as a Loc bitset.
func (mon *Monitor) CV(s *State, t int) uint64 { return load(mon.locs(s, mon.oCV, t)) }

// CVR returns the CVRMW summary of thread t as a Loc bitset.
func (mon *Monitor) CVR(s *State, t int) uint64 { return load(mon.locs(s, mon.oCVR, t)) }

// CW returns the CW summary of location z as a Loc bitset.
func (mon *Monitor) CW(s *State, z int) uint64 { return load(mon.locs(s, mon.oCW, z)) }

// CWR returns the CWRMW summary of location z as a Loc bitset.
func (mon *Monitor) CWR(s *State, z int) uint64 { return load(mon.locs(s, mon.oCWR, z)) }

// Init returns SCM's initial state: M = λx.0; VSC = λτ.Loc;
// MSC = WSC = λx.{x}; all value-tracking components empty (§5).
func (mon *Monitor) Init() *State {
	s := stateIn(make([]byte, mon.size), mon.L)
	mon.Reset(&s)
	return &s
}

// Reset overwrites s, a state of this monitor, with the initial state.
func (mon *Monitor) Reset(s *State) {
	clear(s.b)
	for t := 0; t < mon.T; t++ {
		store(mon.locs(s, mon.oVSC, t), mon.allLocs&mon.Tracked)
	}
	for x := 0; x < mon.L; x++ {
		if mon.Tracked>>x&1 != 0 {
			setBit(s, mon.oMSC+x*mon.lw, x)
			setBit(s, mon.oWSC+x*mon.lw, x)
		}
	}
}

// View points s at the state whose encoding starts data, without copying:
// s aliases data, so stepping s rewrites data in place.
func (mon *Monitor) View(s *State, data []byte) {
	*s = stateIn(data[:mon.size:mon.size], mon.L)
}

// Clone returns a deep copy.
func (s *State) Clone() *State {
	c := stateIn(bytes.Clone(s.b), len(s.M))
	return &c
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

// stale says how a write to x records the value vR = M(x) it overwrites,
// the value of the write that stops being mo-maximal: as bit m of byte o
// of a value-set word when vR is critical, and otherwise (summ) as bit x
// of the non-critical summaries; an untracked x records neither.
type stale struct {
	o    int
	m    byte
	summ bool
}

func (mon *Monitor) stale(s *State, x int) stale {
	vR := s.M[x]
	switch {
	case mon.Tracked>>x&1 == 0:
		// Untracked plane: record neither the stale value nor the
		// non-critical summary bit, keeping the plane identically zero.
		return stale{}
	case mon.Crit[x]>>vR&1 != 0:
		return stale{o: int(vR >> 3), m: 1 << (vR & 7)}
	}
	return stale{summ: true}
}

// hbWrite implements the ⟨τ, W(x, v)⟩ column of Figure 5, which treats
// RMWs exactly like writes: VSC(τ), MSC(x) and WSC(x) become
// VSC(τ) ∪ MSC(x), and x leaves every other thread's VSC and every other
// location's MSC and WSC.
func (mon *Monitor) hbWrite(s *State, tau, x int) {
	lw, b := mon.lw, s.b
	vsc, msc := mon.locs(s, mon.oVSC, tau), mon.locs(s, mon.oMSC, x)
	var u [8]byte // VSC(τ) ∪ MSC(x); a location set has at most 8 bytes
	for k := range vsc {
		u[k] = vsc[k] | msc[k]
	}
	o, m := bit(mon.oVSC, x)
	for end := mon.oVSC + mon.T*lw; o < end; o += lw {
		b[o] &^= m
	}
	// MSC and WSC are adjacent: clear x from both in one sweep.
	for o, _ = bit(mon.oMSC, x); o < mon.oV; o += lw {
		b[o] &^= m
	}
	copy(vsc, u[:lw])
	copy(msc, u[:lw])
	copy(mon.locs(s, mon.oWSC, x), u[:lw])
}

// spread records the stale value st of x for every thread but τ in the V
// components at oV (summaries at oCV) and for every location but x in the
// W components at oW (summaries at oCW).
func (mon *Monitor) spread(s *State, tau, x int, st stale, oV, oCV, oW, oCW int) {
	b, lw, rl := s.b, mon.lw, mon.rl
	switch {
	case st.m != 0:
		col := x*mon.vw + st.o // the stale value's byte in a row
		for o, p := oV+col, 0; p < mon.T; o, p = o+rl, p+1 {
			if p != tau {
				b[o] |= st.m
			}
		}
		for o, z := oW+col, 0; z < mon.L; o, z = o+rl, z+1 {
			if z != x {
				b[o] |= st.m
			}
		}
	case st.summ:
		o, m := bit(0, x)
		for o, p := oCV+o, 0; p < mon.T; o, p = o+lw, p+1 {
			if p != tau {
				b[o] |= m
			}
		}
		for o, z := oCW+o, 0; z < mon.L; o, z = o+lw, z+1 {
			if z != x {
				b[o] |= m
			}
		}
	}
}

// and sets b[dst:dst+n] to its intersection with b[src:src+n].
func and(b []byte, dst, src, n int) {
	d, s := b[dst:dst+n], b[src:src+n]
	for i := range d {
		d[i] &= s[i]
	}
}

// or sets b[dst:dst+n] to its union with b[src:src+n].
func or(b []byte, dst, src, n int) {
	d, s := b[dst:dst+n], b[src:src+n]
	for i := range d {
		d[i] |= s[i]
	}
}

// meet sets both b[i:i+n] and b[j:j+n] to their intersection.
func meet(b []byte, i, j, n int) {
	u, v := b[i:i+n], b[j:j+n]
	for k := range u {
		w := u[k] & v[k]
		u[k], v[k] = w, w
	}
}

// stepWrite implements the ⟨τ, W(x, v)⟩ columns of Figures 5 and 6 and of
// the Appendix C table.
func (mon *Monitor) stepWrite(s *State, tau, x int, v lang.Val) {
	b, lw, vw, rl := s.b, mon.lw, mon.vw, mon.rl
	st := mon.stale(s, x)
	mon.hbWrite(s, tau, x)

	// Figure 6 / Appendix C: τ now reads x mo-maximally, so V(τ)(x),
	// VRMW(τ)(x) and x's bits of CV(τ), CVRMW(τ) are cleared. The row
	// W′(x)(·) is then V(τ)(·) (WRMW′(x)(·) is VRMW(τ)(·)), and the
	// summaries CW′(x), CWRMW′(x) are CV(τ), CVRMW(τ) without x — W(x)(x)
	// stays ∅ because V(τ)(x) now is.
	clear(b[mon.oV+tau*rl+x*vw:][:vw])
	clear(b[mon.oVR+tau*rl+x*vw:][:vw])
	o, m := bit(0, x)
	b[mon.oCV+tau*lw+o] &^= m
	b[mon.oCVR+tau*lw+o] &^= m
	copy(b[mon.oW+x*rl:][:rl], b[mon.oV+tau*rl:][:rl])
	copy(b[mon.oWR+x*rl:][:rl], b[mon.oVR+tau*rl:][:rl])
	copy(b[mon.oCW+x*lw:][:lw], b[mon.oCV+tau*lw:][:lw])
	copy(b[mon.oCWR+x*lw:][:lw], b[mon.oCVR+tau*lw:][:lw])

	// The overwritten value becomes stale for everyone else.
	mon.spread(s, tau, x, st, mon.oV, mon.oCV, mon.oW, mon.oCW)
	mon.spread(s, tau, x, st, mon.oVR, mon.oCVR, mon.oWR, mon.oCWR)

	s.M[x] = v
}

// stepRead implements the ⟨τ, R(x, v)⟩ columns of Figures 5 and 6 and of
// the Appendix C table.
func (mon *Monitor) stepRead(s *State, tau, x int) {
	b, lw, rl := s.b, mon.lw, mon.rl
	t, xl := tau*lw, x*lw
	or(b, mon.oMSC+xl, mon.oVSC+t, lw) // MSC(x) ∪= VSC(τ), before VSC(τ) grows
	or(b, mon.oVSC+t, mon.oWSC+xl, lw)
	and(b, mon.oV+tau*rl, mon.oW+x*rl, rl)
	and(b, mon.oVR+tau*rl, mon.oWR+x*rl, rl)
	and(b, mon.oCV+t, mon.oCW+xl, lw)
	and(b, mon.oCVR+t, mon.oCWR+xl, lw)
}

// stepRMW implements the ⟨τ, RMW(x, vR, vW)⟩ columns of Figures 5 and 6 and
// of the Appendix C table; vR = M(x) is the read (and overwritten) value.
func (mon *Monitor) stepRMW(s *State, tau, x int, vW lang.Val) {
	b, lw, vw, rl := s.b, mon.lw, mon.vw, mon.rl
	st := mon.stale(s, x)
	mon.hbWrite(s, tau, x)

	// Figure 6 / Appendix C, RMW column. The new V(τ) and W(x) rows are
	// both the intersection of the old ones (similarly for the RMW
	// variants and the summaries), without x: W(x)(x) is invariantly ∅,
	// so the intersection's x entry is ∅.
	meet(b, mon.oV+tau*rl, mon.oW+x*rl, rl)
	meet(b, mon.oVR+tau*rl, mon.oWR+x*rl, rl)
	meet(b, mon.oCV+tau*lw, mon.oCW+x*lw, lw)
	meet(b, mon.oCVR+tau*lw, mon.oCWR+x*lw, lw)
	for _, o := range [...]int{mon.oV + tau*rl, mon.oVR + tau*rl, mon.oW + x*rl, mon.oWR + x*rl} {
		clear(b[o+x*vw:][:vw])
	}
	o, m := bit(0, x)
	b[mon.oCW+x*lw+o] &^= m
	b[mon.oCWR+x*lw+o] &^= m

	// vR becomes readable-stale for the other threads (V/W/CV/CW), but is
	// not a write-predecessor candidate (it was read by this RMW), so the
	// RMW-variants do not gain it.
	mon.spread(s, tau, x, st, mon.oV, mon.oCV, mon.oW, mon.oCW)

	s.M[x] = vW
}

// Encode appends the canonical byte encoding of the state to dst, for
// visited-set hashing and frontier storage: the state's own bytes.
// Component widths are fixed by the monitor shape, so equal encodings mean
// equal states.
func (mon *Monitor) Encode(dst []byte, s *State) []byte { return append(dst, s.b...) }

// Decode copies a state from the front of an Encode buffer into s — into
// fresh storage when s has none — and returns the number of bytes
// consumed. View reads a state without copying.
func (mon *Monitor) Decode(data []byte, s *State) int {
	if s.b == nil {
		*s = stateIn(make([]byte, mon.size), mon.L)
	}
	return copy(s.b, data[:mon.size])
}

// EncodedLen returns the length Encode produces for this monitor shape.
func (mon *Monitor) EncodedLen() int { return mon.size }

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
