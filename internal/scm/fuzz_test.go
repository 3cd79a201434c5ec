package scm_test

import (
	"bytes"
	"cmp"
	"math/rand"
	"testing"

	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/prog"
	"repro/internal/scm"
)

// wideShapes are ⟨threads, locations, values⟩ shapes past one byte per
// word: location sets of 2 and 8 bytes (L = 9, 16, 64) and value sets of
// 2 bytes (ValCount 9 and 16). Every Figure 7 row has L ≤ 8 and
// |Val| ≤ 8, so without them only the 1-byte layout would be exercised.
var wideShapes = []struct{ T, L, V int }{
	{2, 9, 2}, {3, 16, 3}, {2, 64, 2}, {2, 3, 9}, {3, 4, 16}, {2, 9, 16},
}

// wideCrit returns a critical-value assignment that leaves one value of
// every odd location non-critical, so the CV/CW summaries take part.
func wideCrit(L, V int) []uint64 {
	crit := prog.AllValsCrit(L, V)
	for x := 1; x < L; x += 2 {
		crit[x] &^= 1 << (x % V)
	}
	return crit
}

// fuzzMonitors builds one monitor per Figure 7 benchmark program, a spread
// of ⟨threads, locations, value-domain⟩ shapes with one-byte words, and one
// per wide shape, which widen the location words, the value words, or both.
func fuzzMonitors(tb testing.TB) []*scm.Monitor {
	tb.Helper()
	var mons []*scm.Monitor
	for _, e := range litmus.Fig7() {
		p := e.Program()
		na := make([]bool, len(p.Locs))
		for i, li := range p.Locs {
			na[i] = li.NA
		}
		mons = append(mons, scm.NewMonitor(p.NumThreads(), p.NumLocs(), p.ValCount, prog.CriticalVals(p), na))
	}
	if len(mons) == 0 {
		tb.Fatal("no Figure 7 programs registered")
	}
	for _, w := range wideShapes {
		mons = append(mons, scm.NewMonitor(w.T, w.L, w.V, wideCrit(w.L, w.V), nil))
	}
	return mons
}

// legacyState is a monitor state in the word-per-component form the
// encoding was first defined on: the memory and one uint64 per component
// word, the components in encoding order.
type legacyState struct {
	M []lang.Val
	B []uint64
}

// legacyComponent is one component of the legacy layout: n words, each
// wide bytes in the encoding; a thread-indexed component has perThread
// words per thread (0 otherwise).
type legacyComponent struct{ n, wide, perThread int }

func legacyLayout(mon *scm.Monitor) []legacyComponent {
	T, L := mon.T, mon.L
	lb, vb := (L+7)/8, (mon.ValCount+7)/8
	return []legacyComponent{
		{T, lb, 1}, {L, lb, 0}, {L, lb, 0}, // VSC, MSC, WSC
		{T * L, vb, L}, {T * L, vb, L}, {L * L, vb, 0}, {L * L, vb, 0}, // V, VRMW, W, WRMW
		{T, lb, 1}, {T, lb, 1}, {L, lb, 0}, {L, lb, 0}, // CV, CVRMW, CW, CWRMW
	}
}

// legacyOffsets returns the index of each component's first word in B.
func legacyOffsets(mon *scm.Monitor) []int {
	lay := legacyLayout(mon)
	offs := make([]int, len(lay))
	for i := 1; i < len(lay); i++ {
		offs[i] = offs[i-1] + lay[i-1].n
	}
	return offs
}

// legacyEncode is the encoding as first defined on legacy states, with
// the thread-indexed components emitted in perm order (nil: identity):
// the memory, one byte per location, then every word little-endian in its
// component's width.
func legacyEncode(mon *scm.Monitor, s *legacyState, perm []uint8) []byte {
	var dst []byte
	for _, v := range s.M {
		dst = append(dst, byte(v))
	}
	emit := func(words []uint64, wide int) {
		for _, b := range words {
			for k := 0; k < wide; k++ {
				dst = append(dst, byte(b))
				b >>= 8
			}
		}
	}
	off := 0
	for _, c := range legacyLayout(mon) {
		words := s.B[off : off+c.n]
		if c.perThread == 0 || perm == nil {
			emit(words, c.wide)
		} else {
			for _, p := range perm {
				emit(words[int(p)*c.perThread:][:c.perThread], c.wide)
			}
		}
		off += c.n
	}
	return dst
}

// legacyCmpThreads is CmpThreads on legacy states: the VSC, CV and CVRMW
// words, then the V and VRMW rows, compared as numbers.
func legacyCmpThreads(mon *scm.Monitor, s *legacyState, a, b int) int {
	lay, offs := legacyLayout(mon), legacyOffsets(mon)
	for _, ci := range []int{0, 7, 8, 3, 4} { // VSC, CV, CVRMW, V, VRMW
		n := lay[ci].perThread
		for k := 0; k < n; k++ {
			if c := cmp.Compare(s.B[offs[ci]+a*n+k], s.B[offs[ci]+b*n+k]); c != 0 {
				return c
			}
		}
	}
	return 0
}

// buildState fills a legacy monitor state from fuzz data: memory values
// stay in the value domain; each word takes an arbitrary pattern of its
// component's width (the bits a word of that width can hold). The data is
// consumed cyclically so short inputs still reach every field.
func buildState(mon *scm.Monitor, data []byte) *legacyState {
	k := 0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[k%len(data)]
		k++
		return b
	}
	s := &legacyState{M: make([]lang.Val, mon.L)}
	for i := range s.M {
		s.M[i] = lang.Val(int(next()) % mon.ValCount)
	}
	for _, c := range legacyLayout(mon) {
		for i := 0; i < c.n; i++ {
			var w uint64
			for j := 0; j < c.wide; j++ {
				w |= uint64(next()) << (8 * j)
			}
			s.B = append(s.B, w)
		}
	}
	return s
}

// FuzzEncodeRoundTrip checks the SCM state encoding used for visited-set
// hashing and frontier payloads against its first definition on legacy
// word-per-component states: a state decoded from the legacy encoding
// must encode to the same EncodedLen bytes, encode under every thread
// rotation as the legacy EncodePerm does, order its threads as the legacy
// CmpThreads does (also when their location words tie), and round-trip
// through Decode. Seeded with the initial
// state, a stepped state and random bytes per Figure 7 and wide shape;
// `go test` runs seeds only.
func FuzzEncodeRoundTrip(f *testing.F) {
	mons := fuzzMonitors(f)
	rng := rand.New(rand.NewSource(1))
	for i, mon := range mons {
		s := mon.Init()
		f.Add(uint8(i), mon.Encode(nil, s))
		// A non-initial seed: one write and one read stepped on the state.
		x := lang.Loc(mon.L - 1)
		mon.Step(s, 0, lang.WriteLab(x, 1))
		mon.Step(s, lang.Tid(mon.T-1), lang.ReadLab(x, 1))
		mon.Step(s, 0, lang.WriteLab(x, lang.Val(mon.ValCount-1)))
		f.Add(uint8(i), mon.Encode(nil, s))
		// An arbitrary state: every word a pseudo-random pattern.
		noise := make([]byte, 61)
		rng.Read(noise)
		f.Add(uint8(i), noise)
	}
	f.Fuzz(func(t *testing.T, mi uint8, data []byte) {
		mon := mons[int(mi)%len(mons)]
		ls := buildState(mon, data)
		want := legacyEncode(mon, ls, nil)

		var s scm.State
		if n := mon.Decode(want, &s); n != len(want) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(want))
		}
		enc := mon.Encode(nil, &s)
		if len(enc) != mon.EncodedLen() {
			t.Fatalf("Encode produced %d bytes, EncodedLen says %d", len(enc), mon.EncodedLen())
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("encoding differs from the legacy encoding:\n  %x\n  %x", enc, want)
		}
		var dec scm.State
		if n := mon.Decode(enc, &dec); n != len(enc) || !dec.Equal(&s) {
			t.Fatalf("decode/re-encode not stable")
		}
		perm := make([]uint8, mon.T)
		for r := 0; r < mon.T; r++ {
			for i := range perm {
				perm[i] = uint8((i + r) % mon.T)
			}
			if got, want := mon.EncodePerm(nil, &s, perm), legacyEncode(mon, ls, perm); !bytes.Equal(got, want) {
				t.Fatalf("EncodePerm %v differs from the legacy encoding:\n  %x\n  %x", perm, got, want)
			}
		}
		cmpThreads := func() {
			t.Helper()
			for a := 0; a < mon.T; a++ {
				for b := 0; b < mon.T; b++ {
					if got, want := mon.CmpThreads(&s, a, b), legacyCmpThreads(mon, ls, a, b); got != want {
						t.Fatalf("CmpThreads(%d, %d) = %d, legacy %d", a, b, got, want)
					}
				}
			}
		}
		cmpThreads()
		// Tie every thread's VSC, CV and CVRMW words to thread 0's, so the
		// order falls through to the V and VRMW rows.
		offs := legacyOffsets(mon)
		for _, ci := range []int{0, 7, 8} { // VSC, CV, CVRMW
			for p := 1; p < mon.T; p++ {
				ls.B[offs[ci]+p] = ls.B[offs[ci]]
			}
		}
		mon.Decode(legacyEncode(mon, ls, nil), &s)
		cmpThreads()
	})
}
