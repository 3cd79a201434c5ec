// Benchmarks regenerating the paper's evaluation (Figure 7 — its single
// experimental exhibit) and the ablations of the design choices DESIGN.md
// calls out. Each Figure 7 row gets three benchmarks:
//
//	BenchmarkFig7/<row>       the robustness verification itself (the
//	                          paper's "Time" column)
//	BenchmarkSCOnly/<row>     plain SC exploration (the "SC" column)
//	BenchmarkTSO/<row>        the Trencher-column stand-in (state
//	                          robustness against TSO), small rows only
//
// plus:
//
//	BenchmarkAblationValues/...   §5.1 abstract value management on vs off
//	                              (the paper reports ~9× on ticketlock4)
//	BenchmarkAblationHashCompact  exact vs hash-compacted visited set
//	BenchmarkAblationEpsGranular  ε-compressed vs ε-granular SC exploration
//
// Absolute numbers are machine- and engine-specific; the reproduction
// targets are the verdicts and the relative shape (see EXPERIMENTS.md).
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/parser"
	"repro/internal/staterobust"
)

func benchVerify(b *testing.B, name string, opts core.Options) {
	e, err := litmus.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	p := e.Program()
	b.ReportAllocs()
	b.ResetTimer()
	var states int
	for i := 0; i < b.N; i++ {
		v, err := core.Verify(p, opts)
		if err != nil {
			b.Fatal(err)
		}
		if v.Robust != e.RobustRA {
			b.Fatalf("verdict %v, want %v", v.Robust, e.RobustRA)
		}
		states = v.States
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkFig7 verifies every Figure 7 row with the default configuration
// (abstract values; hash-compact storage for the multi-million-state row).
func BenchmarkFig7(b *testing.B) {
	for _, e := range litmus.Fig7() {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			if e.Big && testing.Short() {
				b.Skip("multi-minute row; run without -short")
			}
			benchVerify(b, e.Name, core.Options{AbstractVals: true, HashCompact: e.Big})
		})
	}
}

// BenchmarkSCOnly explores each row under plain SC (assertion checking
// only) — the Figure 7 "SC" comparison column.
func BenchmarkSCOnly(b *testing.B) {
	for _, e := range litmus.Fig7() {
		e := e
		b.Run(e.Name, func(b *testing.B) {
			p := e.Program()
			b.ReportAllocs()
			b.ResetTimer()
			var states int
			for i := 0; i < b.N; i++ {
				v, err := core.VerifySC(p, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if v.AssertFail != nil {
					b.Fatalf("assertion failed under SC")
				}
				states = v.States
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// BenchmarkTSO runs the Trencher-column stand-in on the rows whose TSO
// product fits comfortably (see DESIGN.md on the substitution).
func BenchmarkTSO(b *testing.B) {
	for _, name := range []string{
		"barrier", "dekker-sc", "dekker-tso", "peterson-sc", "peterson-tso",
		"peterson-ra", "peterson-ra-dmitriy", "peterson-ra-bratosz",
		"lamport2-sc", "spinlock", "spinlock4", "ticketlock",
		"cilk-the-wsq-sc", "cilk-the-wsq-tso",
	} {
		name := name
		b.Run(name, func(b *testing.B) {
			e, err := litmus.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			p := e.Program()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := model.Check(model.ModeStateTSO, p, staterobust.Limits{MaxStates: 30_000_000, TSOBufCap: 4})
				if err != nil {
					b.Fatal(err)
				}
				if res.Robust != e.RobustTSO {
					b.Fatalf("TSO verdict %v, want %v", res.Robust, e.RobustTSO)
				}
			}
		})
	}
}

// BenchmarkParallel sweeps the worker count over medium Figure 7 rows and
// one large generated row — the scaling curve of the parallel exploration
// engine. workers=1 is the same engine with one worker; the speedup at
// 4 workers is the tentpole number, and is
// only meaningful on a machine with ≥4 cores (on a single-core box every
// worker count degenerates to a slightly slower sequential run).
// ticketlock-n5 is the headline row: the Figure 7 ticketlock family at 5
// threads × 2 acquisitions, ~1.1M instrumented states — well past the
// point where per-worker scratch and sharded interning pay.
func BenchmarkParallel(b *testing.B) {
	for _, name := range []string{"peterson-ra", "seqlock", "ticketlock4", "lamport2-ra"} {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/w%d", name, w), func(b *testing.B) {
				benchVerify(b, name, core.Options{AbstractVals: true, Workers: w})
			})
		}
	}
	big := parser.MustParse(litmus.TicketlockSrc(5, 2))
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ticketlock-n5/w%d", w), func(b *testing.B) {
			if testing.Short() {
				b.Skip("~2.5s per run; run without -short")
			}
			b.ReportAllocs()
			var states int
			for i := 0; i < b.N; i++ {
				v, err := core.Verify(big, core.Options{AbstractVals: true, HashCompact: true, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if !v.Robust {
					b.Fatal("ticketlock n=5 unexpectedly non-robust")
				}
				states = v.States
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

// BenchmarkReduce compares exploration with the partial-order reduction
// layer (ample sets, sleep sets, thread symmetry) off and on over every
// Figure 7 row. seqlock and the chase-lev family are the headline rows:
// symmetric reader/thief pairs fold under thread symmetry and their
// post-write phases collapse under read-only ample sets (2.4–8× fewer
// states; the exact on/off table is pinned in internal/core/reduce_test.go).
// benchVerify fails on verdict drift, so the benchmark doubles as a parity
// smoke.
func BenchmarkReduce(b *testing.B) {
	for _, e := range litmus.Fig7() {
		e := e
		for _, reduce := range []bool{false, true} {
			mode := map[bool]string{false: "off", true: "on"}[reduce]
			b.Run(e.Name+"/"+mode, func(b *testing.B) {
				if e.Big && testing.Short() {
					b.Skip("multi-minute row; run without -short")
				}
				benchVerify(b, e.Name, core.Options{AbstractVals: true, HashCompact: e.Big, Reduce: reduce})
			})
		}
	}
}

// BenchmarkAblationValues compares the §5.1 abstract value management
// against full value tracking on the rows where the paper highlights the
// difference (ticketlock4: ~9× in the paper) and on a few controls.
func BenchmarkAblationValues(b *testing.B) {
	for _, name := range []string{"ticketlock", "ticketlock4", "seqlock", "peterson-ra", "rcu"} {
		for _, abstract := range []bool{true, false} {
			mode := map[bool]string{true: "abstract", false: "full"}[abstract]
			b.Run(name+"/"+mode, func(b *testing.B) {
				benchVerify(b, name, core.Options{AbstractVals: abstract})
			})
		}
	}
}

// BenchmarkAblationHashCompact compares exact and hash-compacted visited
// sets on a medium-sized row.
func BenchmarkAblationHashCompact(b *testing.B) {
	for _, hc := range []bool{false, true} {
		mode := map[bool]string{false: "exact", true: "hashcompact"}[hc]
		b.Run("lamport2-ra/"+mode, func(b *testing.B) {
			benchVerify(b, "lamport2-ra", core.Options{AbstractVals: true, HashCompact: hc})
		})
	}
}

// BenchmarkAblationEpsGranular contrasts the verifier's ε-compressed SC
// exploration with the ε-granular exploration the state-robustness
// explorers must use (DESIGN.md's ε-step compression note).
func BenchmarkAblationEpsGranular(b *testing.B) {
	e, err := litmus.Get("peterson-ra")
	if err != nil {
		b.Fatal(err)
	}
	p := e.Program()
	b.Run("compressed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.VerifySC(p, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("granular", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := staterobust.ReachableSC(p, staterobust.Limits{MaxStates: 10_000_000}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLitmus runs the verifier over the §3 litmus tests — the
// fast-feedback path a user iterating on a small algorithm experiences.
func BenchmarkLitmus(b *testing.B) {
	for _, name := range []string{"SB", "MP", "IRIW", "2+2W", "2RMW", "SB+RMWs"} {
		name := name
		b.Run(name, func(b *testing.B) {
			benchVerify(b, name, core.DefaultOptions())
		})
	}
}

// BenchmarkScaling sweeps the lock generators over thread counts — the
// verifier's scaling curve behind the spinlock/spinlock4 and
// ticketlock/ticketlock4 row pairs of Figure 7 (regenerate interactively
// with rocker sweep).
func BenchmarkScaling(b *testing.B) {
	for n := 2; n <= 5; n++ {
		src := litmus.SpinlockSrc(n, 1)
		b.Run(fmt.Sprintf("spinlock-n%d", n), func(b *testing.B) {
			p := parser.MustParse(src)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Verify(p, core.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for n := 2; n <= 5; n++ {
		src := litmus.TicketlockSrc(n, 1)
		b.Run(fmt.Sprintf("ticketlock-n%d", n), func(b *testing.B) {
			p := parser.MustParse(src)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Verify(p, core.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEmitGenerate measures the compiler front half of the
// generate/compile/verify pipeline (rocker emit); the toolchain invocation
// that dominates end-to-end time — as gcc did for the paper's Spin
// pipeline — is exercised by the emit package's tests instead.
func BenchmarkEmitGenerate(b *testing.B) {
	for _, name := range []string{"SB", "peterson-ra", "rcu", "chase-lev-ra"} {
		name := name
		b.Run(name, func(b *testing.B) {
			e, err := litmus.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			p := e.Program()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := emit.Generate(p, emit.Options{AbstractVals: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
