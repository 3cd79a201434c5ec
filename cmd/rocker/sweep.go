package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/litmus"
	"repro/internal/parser"
)

// runSweep implements "rocker sweep": it measures how the verifier scales
// with the workload parameters the paper's Figure 7 varies implicitly (its
// spinlock/spinlock4 and ticketlock/ticketlock4 row pairs): thread count
// and acquisitions per thread, for the two lock families plus Lamport's
// fast mutex. For each point it reports the instrumented state count and
// time against the plain-SC baseline — the robustness-checking overhead
// curve. With -timeout, each engine run of a point is abandoned (and
// reported as such) once its own deadline expires, so a sweep past the
// machine's comfort zone degrades into "timed out" rows instead of
// hanging.
func runSweep(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("rocker sweep", stderr,
		"rocker sweep [-maxthreads N] [-rounds N] [-lamport] [-workers N] [-timeout d] [-prune] [-noreduce]")
	maxThreads := fs.Int("maxthreads", 5, "largest thread count")
	rounds := fs.Int("rounds", 2, "acquisitions per thread")
	withLamport := fs.Bool("lamport", false, "include the Lamport sweep (minutes at 3 threads)")
	workers := workersFlag(fs)
	timeout := fs.Duration("timeout", 0, "per-point deadline (0 = none)")
	prune := pruneFlag(fs)
	noReduce := noReduceFlag(fs)
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}

	fmt.Fprintf(stdout, "%-22s %10s %12s %10s %12s %8s\n",
		"program", "SCM states", "SCM time", "SC states", "SC time", "ratio")
	// Each engine run gets its own deadline, canceled as soon as it
	// returns: the SC baseline does not inherit what the SCM run left.
	row := func(name, src string) error {
		p, err := parser.Parse(src)
		if err != nil {
			return err
		}
		ctx, cancel := deadline(*timeout)
		v, err := core.Verify(p, core.Options{AbstractVals: true, HashCompact: true, Workers: *workers, Ctx: ctx, StaticPrune: *prune, Reduce: !*noReduce})
		cancel()
		if errors.Is(err, explore.ErrCanceled) {
			fmt.Fprintf(stdout, "%-22s %10s %12s\n", name, "-", "timed out")
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if !v.Robust {
			return fmt.Errorf("%s: unexpectedly non-robust", name)
		}
		ctx, cancel = deadline(*timeout)
		sc, err := core.VerifySC(p, core.Options{Workers: *workers, Ctx: ctx, Reduce: !*noReduce})
		cancel()
		if errors.Is(err, explore.ErrCanceled) {
			fmt.Fprintf(stdout, "%-22s %10d %12v %10s %12s\n", name, v.States, v.Elapsed.Round(time.Millisecond), "-", "timed out")
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		ratio := float64(v.States) / float64(sc.States)
		fmt.Fprintf(stdout, "%-22s %10d %12v %10d %12v %8.1f\n",
			name, v.States, v.Elapsed.Round(time.Millisecond),
			sc.States, sc.Elapsed.Round(time.Millisecond), ratio)
		return nil
	}
	status := 0
	point := func(name, src string) {
		if err := row(name, src); err != nil {
			fmt.Fprintln(stderr, "rocker sweep:", err)
			status = 1
		}
	}
	// The generator sources carry their parameters in the program name.
	for n := 2; n <= *maxThreads; n++ {
		point(fmt.Sprintf("spinlock n=%d r=%d", n, *rounds), litmus.SpinlockSrc(n, *rounds))
	}
	for n := 2; n <= *maxThreads; n++ {
		point(fmt.Sprintf("ticketlock n=%d r=%d", n, *rounds), litmus.TicketlockSrc(n, *rounds))
	}
	if *withLamport {
		for n := 2; n <= 3; n++ {
			point(fmt.Sprintf("lamport-ra n=%d", n), litmus.LamportSrc(n))
		}
	}
	return status
}
