// Command rocker is the reproduction of the paper's prototype tool: it
// checks execution-graph robustness of a program against the C/C++11
// release/acquire memory model (plus data-race freedom on non-atomic
// locations and any user assertions, per §6–§7), by exhaustive exploration
// of the program under the instrumented SC memory of §5.
//
// Usage:
//
//	rocker [flags] file.lit
//	rocker [flags] -corpus name     # run a built-in corpus program
//	rocker -list                    # list the built-in corpus
//	rocker vet file.lit...          # lint programs, non-zero exit on findings
//	rocker golint pkg-or-files      # lift sync/atomic Go code and lint it
//	                                # for robustness at Go source positions
//
// The cross-model verdict matrix: -models runs the same program under
// several memory models and prints one verdict row per model, e.g.
//
//	rocker -models ra,sra,tso,sc -corpus barrier
//	rocker -models ra,tso,state-tso -all
//	rocker -list-modes              # describe the registered modes
//
// Flags:
//
//	-models M1,M2 run each listed verification mode (see -list-modes) and
//	              print one verdict per mode; with -all, one matrix row
//	              per corpus program
//	-list-modes   list the registered verification modes
//	-full         disable the §5.1 abstract value management (ablation)
//	-hashcompact  store 128-bit state hashes instead of full encodings
//	-max N        abort after N states (0 = unbounded)
//	-workers N    parallel exploration workers (0 = all cores, 1 = sequential)
//	-prune        run the static conflict-analysis pre-pass (internal/analysis)
//	-noreduce     disable the partial-order reduction layer (ample sets,
//	              sleep sets, thread symmetry), which is on by default
//	-explain      print the pre-pass report: summaries, conflict graph,
//	              pruned locations, and the certificate or why it declined;
//	              with reduction on, also the independence relation and the
//	              initial-state ample-set decision
//	-trace        print the counterexample SC run on violations
//	-q            print only the verdict line
//	-stats        print exploration statistics (states/sec, heap, GC cycles)
//	-cpuprofile f write a CPU profile to f (go tool pprof)
//	-memprofile f write a heap profile to f on exit
//	-timeout d    abort after a wall-clock deadline (e.g. -timeout 30s)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"errors"
	"strings"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/parser"
)

// main delegates to run so that the profiling defers flush on every exit
// path (os.Exit skips deferred calls).
func main() {
	os.Exit(run())
}

func run() int {
	if len(os.Args) > 1 && os.Args[1] == "vet" {
		return runVet(os.Args[2:])
	}
	if len(os.Args) > 1 && os.Args[1] == "golint" {
		return runGolint(os.Args[2:])
	}
	full := flag.Bool("full", false, "disable abstract value management (§5.1)")
	modelFlag := flag.String("model", "ra", "memory model: ra (the paper) or sra (the POPL'16 strengthening)")
	hashCompact := flag.Bool("hashcompact", false, "hash-compact visited set")
	maxStates := flag.Int("max", 0, "state bound (0 = unbounded)")
	workers := flag.Int("workers", 0, "parallel exploration workers (0 = all cores, 1 = sequential)")
	trace := flag.Bool("trace", true, "print counterexample traces")
	quiet := flag.Bool("q", false, "verdict line only")
	stats := flag.Bool("stats", false, "print exploration statistics (states/sec, heap, GC cycles)")
	prune := flag.Bool("prune", false, "run the static conflict-analysis pre-pass before exploring")
	noReduce := flag.Bool("noreduce", false, "disable partial-order reduction (ample sets, sleep sets, thread symmetry)")
	explain := flag.Bool("explain", false, "print the static-analysis report (implies -prune)")
	models := flag.String("models", "", "comma-separated verification modes for a cross-model verdict matrix (see -list-modes)")
	listModes := flag.Bool("list-modes", false, "list the registered verification modes")
	corpusName := flag.String("corpus", "", "verify a built-in corpus program")
	list := flag.Bool("list", false, "list built-in corpus programs")
	all := flag.Bool("all", false, "verify the whole corpus and compare against the expected verdicts")
	timeout := flag.Duration("timeout", 0, "abort verification after this long (0 = no deadline)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // material allocations only
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	if *listModes {
		for _, in := range model.Infos() {
			kind := "state"
			if in.Graph {
				kind = "graph"
			}
			fmt.Printf("%-10s %-5s %-42s %s\n", in.Mode, kind, in.Checker, in.Desc)
		}
		return 0
	}

	if *models != "" {
		modes, err := matrixModes(*models)
		if err != nil {
			fatal(err)
		}
		opts := model.RunOpts{
			MaxStates:   *maxStates,
			Workers:     *workers,
			StaticPrune: *prune,
			Reduce:      !*noReduce,
			Ctx:         ctx,
		}
		if opts.MaxStates == 0 {
			// The matrix runs several exhaustive explorations back to back;
			// default to a finite budget so one pathological row degrades to
			// a "bound" cell instead of hanging the whole table.
			opts.MaxStates = matrixDefaultMax
		}
		if *all {
			return matrixAll(modes, opts)
		}
		program := loadProgram(*corpusName)
		for _, mode := range modes {
			fmt.Printf("%-10s %s\n", mode, matrixCell(mode, program, opts))
		}
		return 0
	}

	if *all {
		bad := 0
		for _, e := range litmus.All() {
			if e.Big {
				fmt.Printf("%-22s (skipped: multi-minute state space; use -corpus %s -hashcompact)\n", e.Name, e.Name)
				continue
			}
			p := e.Program()
			v, err := core.Verify(p, core.Options{AbstractVals: !*full, Workers: *workers, Ctx: ctx, Reduce: !*noReduce})
			if err != nil {
				fatal(err)
			}
			status := "OK"
			if v.Robust != e.RobustRA {
				status = "MISMATCH"
				bad++
			}
			res := "✗"
			if v.Robust {
				res = "✓"
			}
			fmt.Printf("%-22s %s %-9s %8d states %12v\n", e.Name, res, status, v.States, v.Elapsed.Round(100000))
		}
		if bad > 0 {
			return 1
		}
		return 0
	}

	if *list {
		for _, e := range litmus.All() {
			mark := "✗"
			if e.RobustRA {
				mark = "✓"
			}
			fmt.Printf("%-22s %s  (%d threads)\n", e.Name, mark, e.Program().NumThreads())
		}
		return 0
	}

	program := loadProgram(*corpusName)

	m := core.ModelRA
	switch *modelFlag {
	case "ra":
	case "sra":
		m = core.ModelSRA
	default:
		fatal(fmt.Errorf("unknown model %q (want ra or sra)", *modelFlag))
	}
	v, err := core.Verify(program, core.Options{
		Model:        m,
		AbstractVals: !*full,
		HashCompact:  *hashCompact,
		MaxStates:    *maxStates,
		Workers:      *workers,
		Ctx:          ctx,
		StaticPrune:  *prune || *explain,
		Reduce:       !*noReduce,
	})
	if err != nil {
		fatal(err)
	}
	if *explain && !*noReduce {
		fmt.Print(core.ExplainReduce(program))
	}
	if !*explain && v.Analysis != nil {
		// -prune without -explain: keep the verdict output, drop the
		// full analysis dump.
		v.Analysis = nil
	}
	if *quiet {
		verdict := "ROBUST"
		if !v.Robust {
			verdict = "NOT-ROBUST"
		}
		extra := ""
		if v.Certificate {
			extra = " certificate=static"
		}
		fmt.Printf("%s %s states=%d time=%v%s\n", program.Name, verdict, v.States, v.Elapsed, extra)
	} else {
		out := core.Explain(program, v)
		if !*trace && !v.Robust {
			// Trim the trace section.
			fmt.Print(out[:indexLine(out, "  SC run")])
		} else {
			fmt.Print(out)
		}
		if !v.Certificate {
			fmt.Printf("  instrumentation: %d bits of metadata (§5.1)\n", v.MetadataBits)
		}
	}
	if *stats {
		printStats(v.States, v.Elapsed)
		if !*noReduce {
			fmt.Printf("  reduction: %d ample expansions, %d sleep-set skips, %d symmetry folds\n",
				v.AmpleHits, v.SleepSkips, v.SymmetryFolds)
		}
	}
	if !v.Robust {
		return 1
	}
	return 0
}

// loadProgram resolves the single-program operand: -corpus name or one
// .lit file argument.
func loadProgram(corpusName string) *lang.Program {
	switch {
	case corpusName != "":
		e, err := litmus.Get(corpusName)
		if err != nil {
			fatal(err)
		}
		return e.Program()
	case flag.NArg() == 1:
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		p, err := parser.Parse(string(src))
		if err != nil {
			fatal(err)
		}
		return p
	}
	fmt.Fprintln(os.Stderr, "usage: rocker [flags] file.lit | rocker -corpus name | rocker -list")
	os.Exit(2)
	return nil
}

// matrixDefaultMax bounds each matrix cell when -max is unset: large
// enough for every feasible corpus row under every mode, small enough
// that a pathological product (nbw-w-lr-rl under state-tso) degrades
// to a "bound" cell instead of hanging the table.
const matrixDefaultMax = 2_000_000

// matrixModes parses and validates the -models list.
func matrixModes(spec string) ([]string, error) {
	var out []string
	for _, m := range strings.Split(spec, ",") {
		m = strings.TrimSpace(m)
		if m == "" {
			continue
		}
		if !model.Valid(m) {
			return nil, fmt.Errorf("unknown mode %q (supported: %s)", m, model.ModeList())
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-models: empty mode list (supported: %s)", model.ModeList())
	}
	return out, nil
}

// matrixCell runs one mode on one program and renders the verdict cell:
// ✓/✗ plus the explored-state count, or the reason no verdict exists.
func matrixCell(mode string, p *lang.Program, opts model.RunOpts) string {
	rr, err := model.Run(mode, p, opts)
	switch {
	case err == nil:
		return model.Cell(rr)
	case errors.Is(err, explore.ErrBound):
		return "bound"
	case errors.Is(err, explore.ErrCanceled):
		return "timeout"
	}
	fatal(err)
	return ""
}

// matrixAll prints the cross-model verdict matrix over the whole corpus,
// one row per program, one column per mode.
func matrixAll(modes []string, opts model.RunOpts) int {
	fmt.Printf("%-22s", "program")
	for _, m := range modes {
		fmt.Printf("  %-12s", m)
	}
	fmt.Println()
	for _, e := range litmus.All() {
		if e.Big {
			fmt.Printf("%-22s  (skipped: multi-minute state space; use -corpus %s)\n", e.Name, e.Name)
			continue
		}
		p := e.Program()
		fmt.Printf("%-22s", e.Name)
		for _, mode := range modes {
			cell := matrixCell(mode, p, opts)
			// ✓/✗ are multi-byte; pad on rune width.
			fmt.Printf("  %s%s", cell, strings.Repeat(" ", pad(12, cell)))
		}
		fmt.Println()
	}
	return 0
}

// pad returns the spaces needed to fill cell out to width runes.
func pad(width int, cell string) int {
	if n := len([]rune(cell)); n < width {
		return width - n
	}
	return 0
}

// printStats reports exploration throughput and the runtime's memory
// picture: states per second, current and peak heap occupancy, cumulative
// allocation volume, and completed GC cycles. With the allocation-free hot
// loop, states/sec should scale with workers while allocated-total and GC
// cycles stay near-constant in the explored-state count.
func printStats(states int, elapsed time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rate := float64(states) / elapsed.Seconds()
	fmt.Printf("  stats: %.0f states/sec (%d states in %v)\n", rate, states, elapsed)
	fmt.Printf("  heap: %.1f MiB in use, %.1f MiB peak, %.1f MiB allocated total\n",
		float64(ms.HeapInuse)/(1<<20), float64(ms.HeapSys-ms.HeapReleased)/(1<<20),
		float64(ms.TotalAlloc)/(1<<20))
	fmt.Printf("  gc: %d cycles, %.2f ms total pause\n",
		ms.NumGC, float64(ms.PauseTotalNs)/1e6)
}

func indexLine(s, prefix string) int {
	for i := 0; i+len(prefix) <= len(s); i++ {
		if (i == 0 || s[i-1] == '\n') && s[i:i+len(prefix)] == prefix {
			return i
		}
	}
	return len(s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rocker:", err)
	os.Exit(2)
}
