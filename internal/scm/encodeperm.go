package scm

// EncodePerm is Encode with the thread-indexed components emitted in
// permuted order: slot i of the encoding carries thread perm[i]'s VSC
// entry, V/VRMW rows, and CV/CVRMW summaries. Location-indexed components
// (M, MSC, WSC, W, WRMW, CW, CWRMW) are emitted unchanged: the result is
// the state's bytes with the blocks of the slots perm moves overwritten.
//
// The monitor's transition rules are thread-equivariant — every update
// distinguishes only "the stepping thread" from "the others", and no
// component stores a thread index inside a row — so for any permutation π
// of threads with identical programs, EncodePerm(s, π) equals
// Encode(π·s) where π·s is the state of the run with the threads renamed.
// The partial-order reduction layer uses this to canonicalize states under
// thread symmetry without physically permuting them.
func (mon *Monitor) EncodePerm(dst []byte, s *State, perm []uint8) []byte {
	n := len(dst)
	dst = append(dst, s.b...)
	out := dst[n:]
	// The per-thread blocks: byte offset of thread 0's and length.
	blocks := [...]struct{ off, n int }{
		{mon.oVSC, mon.lw}, {mon.oV, mon.rl}, {mon.oVR, mon.rl}, {mon.oCV, mon.lw}, {mon.oCVR, mon.lw},
	}
	for i, p := range perm[:mon.T] {
		if int(p) == i {
			continue
		}
		for _, c := range blocks {
			copy(out[c.off+i*c.n:][:c.n], s.b[c.off+int(p)*c.n:])
		}
	}
	return dst
}

// CmpThreads totally orders threads a and b by their thread-indexed monitor
// content in s (VSC entry, CV/CVRMW summaries, V and VRMW rows), comparing
// the words as numbers. A zero result means the two threads' per-thread
// monitor words are all equal, so swapping them changes no thread-indexed
// byte of the encoding. The symmetry canonicalizer sorts interchangeable
// threads by this order (composed with the program-state order, which it
// tries first).
func (mon *Monitor) CmpThreads(s *State, a, b int) int {
	lw, rl := mon.lw, mon.rl
	for _, off := range [...]int{mon.oVSC, mon.oCV, mon.oCVR} {
		if c := cmpWords(s.b[off+a*lw:][:lw], s.b[off+b*lw:][:lw], lw); c != 0 {
			return c
		}
	}
	for _, off := range [...]int{mon.oV, mon.oVR} {
		if c := cmpWords(s.b[off+a*rl:][:rl], s.b[off+b*rl:][:rl], mon.vw); c != 0 {
			return c
		}
	}
	return 0
}

// cmpWords compares two equally long sequences of w-byte little-endian
// words, word by word as numbers.
func cmpWords(x, y []byte, w int) int {
	y = y[:len(x)]
	for i := 0; i < len(x); i += w {
		for k := i + w - 1; k >= i; k-- {
			if x[k] != y[k] {
				if x[k] < y[k] {
					return -1
				}
				return 1
			}
		}
	}
	return 0
}
