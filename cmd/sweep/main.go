// Command sweep measures how the verifier scales with the workload
// parameters the paper's Figure 7 varies implicitly (its spinlock/
// spinlock4 and ticketlock/ticketlock4 row pairs): thread count and
// acquisitions per thread, for the two lock families plus Lamport's fast
// mutex. For each point it reports the instrumented state count and time
// against the plain-SC baseline — the robustness-checking overhead curve.
//
// Usage:
//
//	sweep [-maxthreads N] [-rounds N] [-lamport] [-workers N] [-timeout d]
//	      [-prune] [-noreduce]
//	sweep -models ra,sra,tso,sc [-json BENCH_models.json]
//
// With -models, sweep instead grows the cross-model verdict matrix over
// the Figure 7 corpus: one row per program, one cell per verification
// mode (verdict, explored states, time), optionally written as JSON for
// the CI benchmark artifact. With -timeout, each sweep point is abandoned
// (and reported as such) once the per-point deadline expires, so a sweep
// past the machine's comfort zone degrades into "timed out" rows instead
// of hanging.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/parser"
	"repro/internal/staterobust"
)

func main() {
	maxThreads := flag.Int("maxthreads", 5, "largest thread count")
	rounds := flag.Int("rounds", 2, "acquisitions per thread")
	withLamport := flag.Bool("lamport", false, "include the Lamport sweep (minutes at 3 threads)")
	workers := flag.Int("workers", 0, "parallel exploration workers (0 = all cores, 1 = sequential)")
	timeout := flag.Duration("timeout", 0, "per-point deadline (0 = none)")
	prune := flag.Bool("prune", false, "run the static conflict-analysis pre-pass before exploring")
	noReduce := flag.Bool("noreduce", false, "disable partial-order reduction (ample sets, sleep sets, thread symmetry)")
	models := flag.String("models", "", "comma-separated verification modes: cross-model matrix over the Figure 7 corpus instead of the lock sweeps")
	jsonOut := flag.String("json", "", "with -models, also write the matrix as JSON to this file")
	maxStates := flag.Int("max", 0, "state bound per matrix cell with -models (0 = 2M default)")
	flag.Parse()

	if *models != "" {
		os.Exit(matrixMain(*models, *jsonOut, *maxStates, *workers, *timeout, *prune, !*noReduce))
	}

	fmt.Printf("%-22s %10s %12s %10s %12s %8s\n",
		"program", "SCM states", "SCM time", "SC states", "SC time", "ratio")
	// measure runs one engine invocation under its own -timeout deadline,
	// canceled as soon as the measurement returns. The previous version
	// shared a single per-row context between the SCM run and the SC
	// baseline, so the baseline only got whatever budget the SCM run left
	// over (nothing at all after an SCM timeout), and the deferred cancels
	// kept every row's timer alive until the whole sweep exited.
	measure := func(f func(ctx context.Context) error) error {
		ctx := context.Background()
		cancel := func() {}
		if *timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, *timeout)
		}
		defer cancel()
		return f(ctx)
	}
	row := func(name, src string) {
		p, err := parser.Parse(src)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		var v *core.Verdict
		err = measure(func(ctx context.Context) error {
			var verr error
			v, verr = core.Verify(p, core.Options{AbstractVals: true, HashCompact: true, Workers: *workers, Ctx: ctx, StaticPrune: *prune, Reduce: !*noReduce})
			return verr
		})
		if errors.Is(err, core.ErrCanceled) {
			fmt.Printf("%-22s %10s %12s\n", name, "-", "timed out")
			return
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", name, err)
			return
		}
		if !v.Robust {
			fmt.Fprintln(os.Stderr, "sweep:", name, "unexpectedly non-robust")
			return
		}
		var sc *core.SCVerdict
		err = measure(func(ctx context.Context) error {
			var verr error
			sc, verr = core.VerifySC(p, core.Options{Workers: *workers, Ctx: ctx, Reduce: !*noReduce})
			return verr
		})
		if errors.Is(err, core.ErrCanceled) {
			fmt.Printf("%-22s %10d %12v %10s %12s\n", name, v.States, v.Elapsed.Round(time.Millisecond), "-", "timed out")
			return
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", name, err)
			return
		}
		ratio := float64(v.States) / float64(sc.States)
		fmt.Printf("%-22s %10d %12v %10d %12v %8.1f\n",
			name, v.States, v.Elapsed.Round(time.Millisecond),
			sc.States, sc.Elapsed.Round(time.Millisecond), ratio)
	}
	// The generator sources carry their parameters in the program name.
	for n := 2; n <= *maxThreads; n++ {
		row(fmt.Sprintf("spinlock n=%d r=%d", n, *rounds), litmus.SpinlockSrc(n, *rounds))
	}
	for n := 2; n <= *maxThreads; n++ {
		row(fmt.Sprintf("ticketlock n=%d r=%d", n, *rounds), litmus.TicketlockSrc(n, *rounds))
	}
	if *withLamport {
		for n := 2; n <= 3; n++ {
			row(fmt.Sprintf("lamport-ra n=%d", n), litmus.LamportSrc(n))
		}
	}
}

// matrixCell is one (program, mode) measurement of the cross-model
// verdict matrix; the JSON shape is the BENCH_models.json contract.
type matrixCell struct {
	Program string `json:"program"`
	Mode    string `json:"mode"`
	// Status: "ok" (verdict below is meaningful), "bound" (state budget
	// exhausted), "timeout" (per-point deadline), or "skipped" (Big row).
	Status     string `json:"status"`
	Robust     bool   `json:"robust"`
	States     int    `json:"states,omitempty"`
	SCStates   int    `json:"scStates,omitempty"`
	WeakStates int    `json:"weakStates,omitempty"`
	// BufBoundHit: the TSO buffer capacity inhibited a write, so the
	// verdict holds only up to that capacity (printed as "bufcap").
	BufBoundHit bool    `json:"bufBoundHit,omitempty"`
	ElapsedMs   float64 `json:"elapsedMs,omitempty"`
}

// matrixMain runs the per-model comparison table over the Figure 7
// corpus: every mode answers its robustness question about every row, so
// the instrumented-TSO column can be read off against the exhaustive
// state-tso one, and the graph-RA column against the state machines.
func matrixMain(spec, jsonOut string, maxStates, workers int, timeout time.Duration, prune, reduce bool) int {
	var modes []string
	for _, m := range strings.Split(spec, ",") {
		m = strings.TrimSpace(m)
		if m == "" {
			continue
		}
		if !model.Valid(m) {
			fmt.Fprintf(os.Stderr, "sweep: unknown mode %q (supported: %s)\n", m, model.ModeList())
			return 1
		}
		modes = append(modes, m)
	}
	if len(modes) == 0 {
		fmt.Fprintf(os.Stderr, "sweep: -models: empty mode list (supported: %s)\n", model.ModeList())
		return 1
	}
	if maxStates <= 0 {
		maxStates = 2_000_000
	}

	var cells []matrixCell
	fmt.Printf("%-22s", "program")
	for _, m := range modes {
		fmt.Printf("  %-20s", m)
	}
	fmt.Println()
	for _, e := range litmus.Fig7() {
		fmt.Printf("%-22s", e.Name)
		for _, mode := range modes {
			c := matrixCell{Program: e.Name, Mode: mode, Status: "ok"}
			if e.Big {
				c.Status = "skipped"
				cells = append(cells, c)
				fmt.Printf("  %-20s", "skipped (big)")
				continue
			}
			ctx := context.Background()
			cancel := func() {}
			if timeout > 0 {
				ctx, cancel = context.WithTimeout(ctx, timeout)
			}
			rr, err := model.Run(mode, e.Program(), model.RunOpts{
				MaxStates:   maxStates,
				Workers:     workers,
				StaticPrune: prune,
				Reduce:      reduce,
				Ctx:         ctx,
			})
			cancel()
			switch {
			case err == nil:
				c.Robust = rr.Robust
				c.States = rr.States
				c.SCStates = rr.SCStates
				c.WeakStates = rr.WeakStates
				c.BufBoundHit = rr.BufBoundHit
				c.ElapsedMs = float64(rr.Elapsed) / float64(time.Millisecond)
				cell := fmt.Sprintf("%s %v", model.Cell(rr), rr.Elapsed.Round(time.Millisecond))
				fmt.Printf("  %s%*s", cell, pad(20, cell), "")
			case errors.Is(err, core.ErrStateBound) || errors.Is(err, staterobust.ErrBound):
				c.Status = "bound"
				fmt.Printf("  %-20s", "bound")
			case errors.Is(err, core.ErrCanceled) || errors.Is(err, staterobust.ErrCanceled):
				c.Status = "timeout"
				fmt.Printf("  %-20s", "timeout")
			default:
				fmt.Fprintf(os.Stderr, "sweep: %s/%s: %v\n", e.Name, mode, err)
				return 1
			}
			cells = append(cells, c)
		}
		fmt.Println()
	}

	if jsonOut != "" {
		doc := struct {
			Modes []string     `json:"modes"`
			Cells []matrixCell `json:"cells"`
		}{modes, cells}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			return 1
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "sweep: wrote %d cells to %s\n", len(cells), jsonOut)
	}
	return 0
}

// pad returns the spaces needed to fill cell out to width runes (the
// verdict marks are multi-byte, so %-*s alone misaligns).
func pad(width int, cell string) int {
	if n := len([]rune(cell)); n < width {
		return width - n
	}
	return 0
}
