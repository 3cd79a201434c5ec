package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/lang"
	"repro/internal/litmus"
)

// lightStates is the largest state count of a light Figure 7 row: the
// rows whose verdict costs well under a millisecond, where the fixed cost
// of a verdict (its store above all) is a large share of the whole.
const lightStates = 1000

// rockerDefaults are the options `rocker` verifies a row with.
func rockerDefaults() Options { return Options{AbstractVals: true, Reduce: true} }

// lightRow is a light Figure 7 row with its one-worker verdict.
type lightRow struct {
	name string
	p    *lang.Program
	ref  *Verdict
}

// lightRows returns the Figure 7 rows (Big ones aside) whose verdict at
// rocker defaults explores at most lightStates states, with their
// one-worker verdicts.
func lightRows(tb testing.TB) []lightRow {
	tb.Helper()
	var rows []lightRow
	for _, e := range litmus.Fig7() {
		if e.Big {
			continue
		}
		p := e.Program()
		opts := rockerDefaults()
		opts.Workers = 1
		v, err := Verify(p, opts)
		if err != nil {
			tb.Fatalf("%s: %v", e.Name, err)
		}
		if v.States <= lightStates {
			rows = append(rows, lightRow{e.Name, p, v})
		}
	}
	if len(rows) == 0 {
		tb.Fatal("no light Figure 7 row")
	}
	return rows
}

// sameVerdict reports how v differs from ref in the verdict, States, the
// reduction counters, the finding or the trace ("" if it does not).
func sameVerdict(v, ref *Verdict) string {
	if v.Robust != ref.Robust || v.States != ref.States || v.AmpleHits != ref.AmpleHits ||
		v.SleepSkips != ref.SleepSkips || v.SymmetryFolds != ref.SymmetryFolds {
		return fmt.Sprintf("robust=%v states=%d counters=%d/%d/%d, want robust=%v states=%d counters=%d/%d/%d",
			v.Robust, v.States, v.AmpleHits, v.SleepSkips, v.SymmetryFolds,
			ref.Robust, ref.States, ref.AmpleHits, ref.SleepSkips, ref.SymmetryFolds)
	}
	if got, want := fmt.Sprint(findingOf(v), v.Trace), fmt.Sprint(findingOf(ref), ref.Trace); got != want {
		return fmt.Sprintf("finding and trace %s, want %s", got, want)
	}
	return ""
}

// TestVerifyStoreReuse verifies the light Figure 7 rows over and over
// from 4 goroutines at 1, 2 and 4 workers, mixed with searches that end
// early — at a MaxStates bound and by a cancelled context — so that the
// stores the verifier recycles pass between verdicts of every kind. Each
// verdict must equal the row's one-worker verdict from a fresh start.
func TestVerifyStoreReuse(t *testing.T) {
	rows := lightRows(t)
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, row := range rows {
					opts := rockerDefaults()
					opts.Workers = 1 << ((g + r + i) % 3)
					switch (g + i) % 5 {
					case 0:
						bound := opts
						bound.MaxStates = row.ref.States / 2
						if _, err := Verify(row.p, bound); !errors.Is(err, ErrStateBound) {
							t.Errorf("%s MaxStates=%d: err %v, want ErrStateBound", row.name, bound.MaxStates, err)
						}
					case 1:
						stop := opts
						stop.Ctx = canceled
						if _, err := Verify(row.p, stop); !errors.Is(err, ErrCanceled) {
							t.Errorf("%s canceled: err %v, want ErrCanceled", row.name, err)
						}
					}
					v, err := Verify(row.p, opts)
					if err != nil {
						t.Errorf("%s workers=%d: %v", row.name, opts.Workers, err)
						continue
					}
					if d := sameVerdict(v, row.ref); d != "" {
						t.Errorf("%s workers=%d goroutine %d: %s", row.name, opts.Workers, g, d)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkVerifyLight runs one Verify per light Figure 7 row at
// rocker defaults: the per-verdict fixed cost that dominates a service
// answering many small requests.
func BenchmarkVerifyLight(b *testing.B) {
	rows := lightRows(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, row := range rows {
			if _, err := Verify(row.p, rockerDefaults()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/verdict")
}
