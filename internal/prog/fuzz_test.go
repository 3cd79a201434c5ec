package prog_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/prog"
)

// fuzzPrograms compiles a fixed selection of Figure 7 benchmark programs
// once; the fuzz body picks among them by index. The selection spans the
// shape space: thread counts, register counts, and instruction counts all
// differ across the set.
func fuzzPrograms(tb testing.TB) []*prog.P {
	tb.Helper()
	var ps []*prog.P
	for _, e := range litmus.Fig7() {
		ps = append(ps, prog.New(e.Program()))
	}
	if len(ps) == 0 {
		tb.Fatal("no Figure 7 programs registered")
	}
	return ps
}

// buildState derives a well-formed (but otherwise arbitrary) program state
// from fuzz data: every pc lands in [0, len(Insts)] — the range liveness
// tables cover — and every register in the program's value domain. The data
// is consumed cyclically so short inputs still reach every field.
func buildState(p *prog.P, valCount int, data []byte) prog.State {
	s := p.InitStateRaw()
	k := 0
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[k%len(data)]
		k++
		return int(b)
	}
	for i := range s.Threads {
		s.Threads[i].PC = next() % (len(p.Prog.Threads[i].Insts) + 1)
		for r := range s.Threads[i].Regs {
			s.Threads[i].Regs[r] = lang.Val(next() % valCount)
		}
	}
	return s
}

// FuzzEncodeStateRoundTrip checks the visited-set encoding of program
// states: the raw encoding must round-trip exactly, and the canonical
// (dead-register-zeroing) encoding must be a projection — stable under a
// decode/re-encode cycle, never longer than the raw form, and identical
// for the state it decodes to — and EncodeThreadAt must rewrite exactly
// one thread's block of it. Seeded with the initial states of the
// Figure 7 corpus; `go test` runs seeds only, `go test -fuzz` explores.
func FuzzEncodeStateRoundTrip(f *testing.F) {
	progs := fuzzPrograms(f)
	for i, p := range progs {
		f.Add(uint8(i), p.EncodeStateRaw(nil, p.InitStateRaw()))
		f.Add(uint8(i), []byte{0x07, 0xff, 0x3c, 0x01, 0x00, 0xa5})
	}
	f.Fuzz(func(t *testing.T, pi uint8, data []byte) {
		p := progs[int(pi)%len(progs)]
		s := buildState(p, p.Prog.ValCount, data)

		raw := p.EncodeStateRaw(nil, s)
		dec := p.InitStateRaw()
		if n := p.DecodeState(raw, dec); n != len(raw) {
			t.Fatalf("DecodeState consumed %d of %d bytes", n, len(raw))
		}
		if again := p.EncodeStateRaw(nil, dec); !bytes.Equal(raw, again) {
			t.Fatalf("raw encoding not a bijection:\n  %x\n  %x", raw, again)
		}

		enc := p.EncodeState(nil, s)
		if len(enc) != len(raw) {
			t.Fatalf("canonical and raw encodings disagree on length: %d vs %d", len(enc), len(raw))
		}
		dec2 := p.InitStateRaw()
		if n := p.DecodeState(enc, dec2); n != len(enc) {
			t.Fatalf("DecodeState consumed %d of %d bytes", n, len(enc))
		}
		if again := p.EncodeState(nil, dec2); !bytes.Equal(enc, again) {
			t.Fatalf("canonical encoding not idempotent:\n  %x\n  %x", enc, again)
		}

		// Rewriting one thread's block of another state's encoding gives
		// the encoding of that state with the thread swapped in.
		base := p.InitStateRaw()
		for i := range s.Threads {
			got := p.EncodeState(nil, base)
			p.EncodeThreadAt(got, i, s.Threads[i])
			mixed := prog.State{Threads: slices.Clone(base.Threads)}
			mixed.Threads[i] = s.Threads[i]
			if want := p.EncodeState(nil, mixed); !bytes.Equal(got, want) {
				t.Fatalf("EncodeThreadAt(%d):\n  %x\n  %x", i, got, want)
			}
		}
	})
}
