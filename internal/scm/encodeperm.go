package scm

// EncodePerm is Encode with the thread-indexed components emitted in
// permuted order: slot i of the encoding carries thread perm[i]'s VSC
// entry, V/VRMW rows, and CV/CVRMW summaries. Location-indexed components
// (M, MSC, WSC, W, WRMW, CW, CWRMW) are emitted unchanged.
//
// The monitor's transition rules are thread-equivariant — every update
// distinguishes only "the stepping thread" from "the others", and no
// component stores a thread index inside a row — so for any permutation π
// of threads with identical programs, EncodePerm(s, π) equals
// Encode(π·s) where π·s is the state of the run with the threads renamed.
// The partial-order reduction layer uses this to canonicalize states under
// thread symmetry without physically permuting them.
func (mon *Monitor) EncodePerm(dst []byte, s *State, perm []uint8) []byte {
	for _, v := range s.M {
		dst = append(dst, byte(v))
	}
	locBytes := (mon.L + 7) / 8
	valBytes := (mon.ValCount + 7) / 8
	emit := func(off, n, width int) {
		if width == 1 {
			for _, b := range s.B[off : off+n] {
				dst = append(dst, byte(b))
			}
			return
		}
		for i := 0; i < n; i++ {
			b := s.B[off+i]
			for k := 0; k < width; k++ {
				dst = append(dst, byte(b))
				b >>= 8
			}
		}
	}
	// emitT emits n-word-per-thread blocks in perm order.
	emitT := func(off, n, width int) {
		for i := 0; i < mon.T; i++ {
			emit(off+int(perm[i])*n, n, width)
		}
	}
	emitT(mon.oVSC, 1, locBytes)
	emit(mon.oMSC, mon.L, locBytes)
	emit(mon.oWSC, mon.L, locBytes)
	emitT(mon.oV, mon.L, valBytes)
	emitT(mon.oVR, mon.L, valBytes)
	emit(mon.oW, mon.L*mon.L, valBytes)
	emit(mon.oWR, mon.L*mon.L, valBytes)
	emitT(mon.oCV, 1, locBytes)
	emitT(mon.oCVR, 1, locBytes)
	emit(mon.oCW, mon.L, locBytes)
	emit(mon.oCWR, mon.L, locBytes)
	return dst
}

// CmpThreads totally orders threads a and b by their thread-indexed monitor
// content in s (VSC entry, CV/CVRMW summaries, V and VRMW rows). A zero
// result means the two threads' per-thread monitor words are all equal, so
// swapping them changes no thread-indexed byte of the encoding. The
// symmetry canonicalizer sorts interchangeable threads by this order
// (composed with the program-state order, which it tries first).
func (mon *Monitor) CmpThreads(s *State, a, b int) int {
	cmp := func(x, y uint64) int {
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	}
	if c := cmp(s.B[mon.oVSC+a], s.B[mon.oVSC+b]); c != 0 {
		return c
	}
	if c := cmp(s.B[mon.oCV+a], s.B[mon.oCV+b]); c != 0 {
		return c
	}
	if c := cmp(s.B[mon.oCVR+a], s.B[mon.oCVR+b]); c != 0 {
		return c
	}
	for x := 0; x < mon.L; x++ {
		if c := cmp(s.B[mon.oV+a*mon.L+x], s.B[mon.oV+b*mon.L+x]); c != 0 {
			return c
		}
	}
	for x := 0; x < mon.L; x++ {
		if c := cmp(s.B[mon.oVR+a*mon.L+x], s.B[mon.oVR+b*mon.L+x]); c != 0 {
			return c
		}
	}
	return 0
}
