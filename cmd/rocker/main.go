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
//	rocker -all                     # verify the corpus against its expected verdicts
//	rocker vet file.lit...          # lint programs, non-zero exit on findings
//	rocker golint pkg-or-files      # lift sync/atomic Go code and lint it
//	                                # for robustness at Go source positions
//	rocker fig7 [-big] [-tso] [-markdown]   # the paper's Figure 7 table
//	rocker sweep [-maxthreads N] [-rounds N] [-lamport]
//	                                # lock-family scaling sweep, SCM vs SC states
//	rocker repair [-maxrepairs N] [-strategy fences|rmws|mixed] [-print]
//	              file.lit | -corpus name
//	                                # insert fences/RMWs until robust
//	rocker simulate [-model sc|ra|sra|tso] [-seed S] [-tries N] [-maxsteps N]
//	              file.lit | -corpus name
//	                                # one random run (or a seed hunt)
//	rocker emit [-full] [-o file] file.lit | -corpus name
//	                                # compile to a standalone Go verifier
//
// The cross-model verdict matrix: -models runs the same program under
// several memory models and prints one verdict row per model, with the
// witness run of every ✗ cell, e.g.
//
//	rocker -models ra,sra,tso,sc -corpus barrier
//	rocker -models state-ra -corpus SB   # state robustness against the RA machine
//	rocker -models ra,tso,state-tso -all -json BENCH_models.json
//	rocker -list-modes              # describe the registered modes
//
// Flags:
//
//	-models M1,M2 run each listed verification mode (see -list-modes) and
//	              print one verdict per mode; with -all, one matrix row
//	              per corpus program
//	-json f       with -models, also write the matrix cells as JSON to f
//	-bufcap N     TSO store-buffer capacity for the tso and state-tso modes
//	-list-modes   list the registered verification modes
//	-full         disable the §5.1 abstract value management (ablation)
//	-hashcompact  store 128-bit state hashes instead of full encodings
//	-max N        abort after N states (0 = unbounded; 2M per cell with -models)
//	-workers N    parallel exploration workers (0 = all cores, 1 = sequential)
//	-prune        run the static conflict-analysis pre-pass (internal/analysis)
//	-noreduce     disable the partial-order reduction layer (ample sets,
//	              sleep sets, thread symmetry), which is on by default
//	-explain      print the pre-pass report: summaries, conflict graph,
//	              pruned locations, and the certificate or why it declined;
//	              with reduction on, also the independence relation and the
//	              initial-state ample-set decision
//	-trace        print the counterexample run on violations
//	-q            print only the verdict line
//	-stats        print exploration statistics (states/sec, heap, GC cycles)
//	-cpuprofile f write a CPU profile to f (go tool pprof)
//	-memprofile f write a heap profile to f on exit
//	-timeout d    abort after a wall-clock deadline (e.g. -timeout 30s);
//	              with -all, the deadline of each row (each cell with -models)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/parser"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// subcommands maps each subcommand name to its entry point. Every entry
// point returns the exit status instead of exiting, so deferred work
// (profiles, deadlines) runs on every path and tests drive the CLI
// in-process.
var subcommands = map[string]func(args []string, stdout, stderr io.Writer) int{
	"vet":      runVet,
	"golint":   runGolint,
	"fig7":     runFig7,
	"sweep":    runSweep,
	"repair":   runRepair,
	"simulate": runSimulate,
	"emit":     runEmit,
}

// run dispatches to a subcommand, or verifies one program (or the
// corpus) when args name none.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		if cmd, ok := subcommands[args[0]]; ok {
			return cmd(args[1:], stdout, stderr)
		}
	}
	return runVerify(args, stdout, stderr)
}

// runVerify is rocker without a subcommand: verify one program, the
// corpus (-all), or the cross-model matrix (-models). Its status is 1
// for a non-robust verdict (any ✗ cell), 2 for an error.
func runVerify(args []string, stdout, stderr io.Writer) (status int) {
	fs := newFlagSet("rocker", stderr,
		"rocker [flags] file.lit | -corpus name | -all | -list | -list-modes | SUBCOMMAND (vet, golint, fig7, sweep, repair, simulate, emit)")
	full := fs.Bool("full", false, "disable abstract value management (§5.1)")
	modelFlag := fs.String("model", "ra", "memory model: ra (the paper) or sra (the POPL'16 strengthening)")
	hashCompact := fs.Bool("hashcompact", false, "hash-compact visited set")
	maxStates := maxFlag(fs, 0)
	workers := workersFlag(fs)
	trace := fs.Bool("trace", true, "print counterexample traces")
	quiet := fs.Bool("q", false, "verdict line only")
	stats := fs.Bool("stats", false, "print exploration statistics (states/sec, heap, GC cycles)")
	prune := pruneFlag(fs)
	noReduce := noReduceFlag(fs)
	explain := fs.Bool("explain", false, "print the static-analysis report (implies -prune)")
	models := fs.String("models", "", "comma-separated verification modes for a cross-model verdict matrix (see -list-modes); each cell is bounded at 2M states unless -max is set")
	jsonOut := fs.String("json", "", "with -models, also write the matrix cells as JSON to this file")
	bufCap := fs.Int("bufcap", 8, "TSO store-buffer capacity (modes tso and state-tso)")
	listModes := fs.Bool("list-modes", false, "list the registered verification modes")
	corpusName := corpusFlag(fs)
	list := fs.Bool("list", false, "list built-in corpus programs")
	all := fs.Bool("all", false, "verify the whole corpus and compare against the expected RA verdicts (-max, -prune, -hashcompact and -timeout bound each row)")
	timeout := fs.Duration("timeout", 0, "abort verification after this long (0 = no deadline); with -all, per row (per cell with -models)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(fs, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(fs, err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				status = fail(fs, err)
				return
			}
			defer f.Close()
			runtime.GC() // material allocations only
			if err := pprof.WriteHeapProfile(f); err != nil {
				status = fail(fs, err)
			}
		}()
	}

	if *listModes {
		for _, in := range model.Infos() {
			kind := "state"
			if in.Graph {
				kind = "graph"
			}
			fmt.Fprintf(stdout, "%-10s %-5s %-42s %s\n", in.Mode, kind, in.Checker, in.Desc)
		}
		return 0
	}

	if *all && (*corpusName != "" || fs.NArg() > 0) {
		return fail(fs, usageError("-all verifies the whole corpus: it takes no -corpus and no operands"))
	}

	if *models != "" {
		// Each mode fixes its own model, value tracking and store, so
		// these flags have nothing to reach: refuse them, not ignore them.
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "model", "hashcompact", "full":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return fail(fs, usageError("-models runs each mode as registered (see -list-modes): it takes no "+strings.Join(ignored, ", ")))
		}
		modes, err := model.ParseModes(*models)
		if err != nil {
			return fail(fs, fmt.Errorf("-models: %w", err))
		}
		opts := model.RunOpts{
			MaxStates:   *maxStates,
			Workers:     *workers,
			TSOBufCap:   *bufCap,
			StaticPrune: *prune,
			Reduce:      !*noReduce,
		}
		if opts.MaxStates == 0 {
			// The matrix runs several exhaustive explorations back to back;
			// default to a finite budget so one pathological row degrades to
			// a "bound" cell instead of hanging the whole table.
			opts.MaxStates = matrixDefaultMax
		}
		var cells []matrixCell
		if *all {
			cells, err = matrixAll(stdout, modes, opts, *timeout)
		} else {
			program, perr := loadProgram(fs, *corpusName)
			if perr != nil {
				return fail(fs, perr)
			}
			ctx, cancel := deadline(*timeout)
			defer cancel()
			opts.Ctx = ctx
			cells, status, err = matrixOne(stdout, program, modes, opts, *trace && !*quiet)
		}
		if err == nil && *jsonOut != "" {
			err = writeCells(stderr, *jsonOut, modes, cells)
		}
		if err != nil {
			return fail(fs, err)
		}
		return status
	}

	m := core.ModelRA
	switch *modelFlag {
	case "ra":
	case "sra":
		m = core.ModelSRA
	default:
		return fail(fs, fmt.Errorf("unknown model %q (want ra or sra)", *modelFlag))
	}

	if *all {
		if m != core.ModelRA {
			return fail(fs, usageError("-all checks the corpus's expected RA verdicts: it takes no -model "+*modelFlag))
		}
		return verifyAll(fs, stdout, core.Options{
			AbstractVals: !*full,
			HashCompact:  *hashCompact,
			MaxStates:    *maxStates,
			Workers:      *workers,
			StaticPrune:  *prune,
			Reduce:       !*noReduce,
		}, *timeout)
	}

	if *list {
		for _, e := range litmus.All() {
			mark := "✗"
			if e.RobustRA {
				mark = "✓"
			}
			fmt.Fprintf(stdout, "%-22s %s  (%d threads)\n", e.Name, mark, e.Program().NumThreads())
		}
		return 0
	}

	program, err := loadProgram(fs, *corpusName)
	if err != nil {
		return fail(fs, err)
	}

	ctx, cancel := deadline(*timeout)
	defer cancel()
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
		return fail(fs, err)
	}
	if *explain && !*noReduce {
		fmt.Fprint(stdout, core.ExplainReduce(program))
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
		fmt.Fprintf(stdout, "%s %s states=%d time=%v%s\n", program.Name, verdict, v.States, v.Elapsed, extra)
	} else {
		out := core.Explain(program, v)
		if !*trace && !v.Robust {
			// Trim the trace section.
			out = out[:indexLine(out, "  SC run")]
		}
		fmt.Fprint(stdout, out)
		if !v.Certificate {
			fmt.Fprintf(stdout, "  instrumentation: %d bits of metadata (§5.1)\n", v.MetadataBits)
		}
	}
	if *stats {
		printStats(stdout, v.States, v.StoreBytes, v.Elapsed)
		if !*noReduce {
			fmt.Fprintf(stdout, "  reduction: %d ample expansions, %d sleep-set skips, %d symmetry folds\n",
				v.AmpleHits, v.SleepSkips, v.SymmetryFolds)
		}
	}
	if !v.Robust {
		return 1
	}
	return 0
}

// verifyAll verifies every corpus row that is not Big and compares the
// verdict against the expected one; each row gets its own deadline and
// state bound, so a slow or large row prints a timeout or bound line
// instead of ending the table.
func verifyAll(fs *flag.FlagSet, stdout io.Writer, opts core.Options, timeout time.Duration) int {
	bad := 0
	for _, e := range litmus.All() {
		if e.Big {
			fmt.Fprintf(stdout, "%-22s (skipped: multi-minute state space; use -corpus %s -hashcompact)\n", e.Name, e.Name)
			continue
		}
		ctx, cancel := deadline(timeout)
		opts.Ctx = ctx
		v, err := core.Verify(e.Program(), opts)
		cancel()
		if errors.Is(err, explore.ErrCanceled) {
			fmt.Fprintf(stdout, "%-22s (timeout: no verdict within %v)\n", e.Name, timeout)
			continue
		}
		if errors.Is(err, explore.ErrBound) {
			fmt.Fprintf(stdout, "%-22s (bound: more than %d states)\n", e.Name, opts.MaxStates)
			continue
		}
		if err != nil {
			return fail(fs, fmt.Errorf("%s: %w", e.Name, err))
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
		fmt.Fprintf(stdout, "%-22s %s %-9s %8d states %12v\n", e.Name, res, status, v.States, v.Elapsed.Round(100000))
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// printStats reports exploration throughput and the memory picture: states
// per second, the visited store's peak footprint, current and peak heap
// occupancy, cumulative allocation volume, and completed GC cycles. With
// the allocation-free hot loop, states/sec should scale with workers while
// allocated-total and GC cycles stay near-constant in the explored-state
// count.
func printStats(w io.Writer, states, storeBytes int, elapsed time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rate := float64(states) / elapsed.Seconds()
	fmt.Fprintf(w, "  stats: %.0f states/sec (%d states in %v), store %.1f KiB peak\n",
		rate, states, elapsed, float64(storeBytes)/(1<<10))
	fmt.Fprintf(w, "  heap: %.1f MiB in use, %.1f MiB peak, %.1f MiB allocated total\n",
		float64(ms.HeapInuse)/(1<<20), float64(ms.HeapSys-ms.HeapReleased)/(1<<20),
		float64(ms.TotalAlloc)/(1<<20))
	fmt.Fprintf(w, "  gc: %d cycles, %.2f ms total pause\n",
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

// newFlagSet returns a subcommand's flag set: errors and usage go to
// stderr, and parse errors come back to the caller instead of exiting.
func newFlagSet(name string, stderr io.Writer, usage string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage:", usage)
		fs.PrintDefaults()
	}
	return fs
}

// The flags that several subcommands share, declared once each.

func corpusFlag(fs *flag.FlagSet) *string {
	return fs.String("corpus", "", "use a built-in corpus program (see rocker -list) instead of a file")
}

func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "parallel exploration workers (0 = all cores, 1 = sequential)")
}

func maxFlag(fs *flag.FlagSet, def int) *int {
	return fs.Int("max", def, "state bound per exploration (0 = unbounded)")
}

func noReduceFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("noreduce", false, "disable partial-order reduction (ample sets, sleep sets, thread symmetry)")
}

func pruneFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("prune", false, "run the static conflict-analysis pre-pass before exploring")
}

// parseStatus is the exit status of a failed fs.Parse: 0 when -h asked
// for the usage, 2 for a bad flag.
func parseStatus(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// usageError is an error in the operands; fail prints the usage after it.
type usageError string

func (e usageError) Error() string { return string(e) }

// fail reports err under the subcommand's name and returns exit status 2.
func fail(fs *flag.FlagSet, err error) int {
	fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
	var ue usageError
	if errors.As(err, &ue) {
		fs.Usage()
	}
	return 2
}

// loadProgram resolves the single-program operand shared by every
// subcommand that takes one: exactly one of -corpus NAME or one .lit
// file. Anything else — neither, both, or several files — is a usage
// error rather than a silently ignored operand.
func loadProgram(fs *flag.FlagSet, corpusName string) (*lang.Program, error) {
	switch {
	case corpusName != "" && fs.NArg() == 0:
		e, err := litmus.Get(corpusName)
		if err != nil {
			return nil, err
		}
		return e.Program(), nil
	case corpusName == "" && fs.NArg() == 1:
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return nil, err
		}
		return parser.Parse(string(src))
	case corpusName != "":
		return nil, usageError(fmt.Sprintf("-corpus %s and operands %s: name one program", corpusName, strings.Join(fs.Args(), " ")))
	case fs.NArg() > 1:
		return nil, usageError(fmt.Sprintf("%d operands %s: name one program", fs.NArg(), strings.Join(fs.Args(), " ")))
	}
	return nil, usageError("no program: give a .lit file or -corpus NAME")
}

// deadline returns a context that expires after d, or never when d is 0.
func deadline(d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(context.Background(), d)
	}
	return context.WithCancel(context.Background())
}
