// Package core is the heart of the reproduction: the Rocker verifier. It
// decides execution-graph robustness against the release/acquire memory
// model by exhaustively exploring the program composed with the
// instrumented SC memory SCM of §5 and evaluating the Theorem 5.3
// robustness conditions (plus the §6 racy-state condition and any user
// assertions) at every reachable state — the reduction the paper proves
// sound and precise (Theorems 5.1, 5.3 and 6.2).
//
// By Proposition 4.10, a Robust verdict also establishes state robustness:
// every program state reachable under RA is reachable under SC, so the
// program may be verified with SC-only techniques. A NonRobust verdict
// comes with a counterexample trace: an SC run to a state from which an RA
// execution graph can diverge from all SC ones.
//
// One engine answers every query: a level-synchronous breadth-first search
// on explore.RunLevels (see search), which Options.Workers spreads over
// that many goroutines — Workers = 1 is the same engine with one worker.
// Robustness checking is embarrassingly parallel at the state level, since
// the Theorem 5.3 conditions are evaluated per state against the
// read-only monitor. A violation ends the search once its level is
// complete, so the verdict, the state count and the (shortest)
// counterexample trace do not depend on the worker count.
package core

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/prog"
	"repro/internal/scm"
)

// Model selects the weak memory model robustness is checked against.
type Model uint8

// Supported models.
const (
	// ModelRA is the paper's release/acquire model (the default).
	ModelRA Model = iota
	// ModelSRA is the strong release/acquire model of Lahav, Giannarakis
	// & Vafeiadis (POPL 2016) — the §9 extension direction. SRA places
	// writes mo-maximally, so only stale reads can break robustness;
	// e.g. 2+2W is robust against SRA but not against RA (Example 3.4).
	ModelSRA
)

// Options configures verification.
type Options struct {
	// Model selects the weak model (RA by default, or SRA).
	Model Model
	// AbstractVals enables the §5.1 abstract value management (critical
	// values only, with CV/CW summaries). It is the default mode; turning
	// it off tracks every value exactly (the ablation of §5.1).
	AbstractVals bool
	// MaxStates bounds the explored state count; 0 means unbounded.
	// Exceeding the bound yields ErrStateBound, never a wrong verdict: a
	// search errs exactly when one of its levels ends above the bound.
	MaxStates int
	// HashCompact stores 128-bit hashes of states instead of full state
	// encodings in the visited set (Spin's hashcompact mode); the keys of
	// the states the search has yet to expand, at most two levels of them,
	// are kept besides. It cuts memory on large runs; a hash collision
	// could in principle prune a state (probability < n²·2⁻¹²⁸ for n
	// states — negligible, but the exact mode is the default and is used
	// by all correctness tests). Sleep sets are off under it.
	HashCompact bool
	// Workers sets the number of exploration workers: 0 uses GOMAXPROCS.
	// Every count runs the same engine; the verdict, States, the reported
	// violation, the trace and the reduction counters are the same at
	// every count.
	Workers int
	// Ctx, when non-nil, bounds the verification by a deadline or an
	// explicit cancellation: the exploration polls it cooperatively (every
	// few dozen expansions per worker) and a cancelled run returns
	// ErrCanceled — never a partial or wrong verdict. Robustness checking
	// is PSPACE-hard in general, so long-running callers (the rockerd
	// service, CLI -timeout flags) must be able to bail out cleanly.
	Ctx context.Context
	// Progress, when non-nil, is called with a snapshot of the running
	// exploration every ProgressEvery expanded states. It may be invoked
	// concurrently from worker goroutines and must be cheap and
	// goroutine-safe; it must not retain the snapshot's identity beyond
	// the call (the values are plain counters, safe to copy).
	Progress func(Progress)
	// ProgressEvery is the number of expanded states between Progress
	// calls; 0 means 4096.
	ProgressEvery int
	// Reduce turns on conflict-graph-guided partial-order reduction:
	// ample-set expansion (a thread whose pending operation touches a
	// location no other thread can still access — or, for a plain read, no
	// other thread can still write, per the internal/analysis forward
	// summaries — stands in for the full expansion of a state), sleep sets
	// (edges that only commute with an already-explored interleaving are
	// skipped; exact visited set only), and thread-symmetry
	// canonicalization (states of byte-identical threads are interned up
	// to permutation, with counterexample traces concretized back through
	// the recorded permutations). Verdicts are bit-identical with and
	// without it; the distinct-state count shrinks — often by multiples —
	// and stays worker-count-independent. The zero value is off; the
	// rocker CLI enables it by default (-noreduce opts out).
	Reduce bool
	// StaticPrune runs the internal/analysis pre-pass before exploring:
	// locations outside every cross-thread conflict cycle are dropped
	// from the SCM instrumentation (shrinking the state space without
	// changing any verdict), critical-value masks are sharpened by
	// constant propagation when AbstractVals is on, and programs whose
	// conflict graph has no dangerous cycle at all are discharged
	// immediately with Verdict.Certificate set and zero states explored.
	StaticPrune bool
}

// Progress is a live snapshot of a running exploration, delivered to
// Options.Progress. Every interned state is expanded once, and with sleep
// sets some again (see search).
type Progress struct {
	// States is the number of distinct states interned so far.
	States int
	// Expanded is the number of expansions so far.
	Expanded int64
}

// ErrCanceled is explore.ErrCanceled, returned (wrapped, with the
// context's cause) when Options.Ctx is cancelled before the exploration
// completes.
var ErrCanceled = explore.ErrCanceled

// canceled wraps ctx's cause in ErrCanceled.
func canceled(ctx context.Context) error {
	return fmt.Errorf("%w: %w", explore.ErrCanceled, context.Cause(ctx))
}

// DefaultOptions returns the standard configuration (abstract values on,
// no state bound, exact visited set, a worker per CPU).
func DefaultOptions() Options { return Options{AbstractVals: true} }

// workerCount resolves Options.Workers to an actual worker count.
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Verdict is the result of a robustness verification run.
type Verdict struct {
	// Robust reports execution-graph robustness against RA (and
	// race-freedom on non-atomic locations, and that no assertion fails
	// under SC).
	Robust bool
	// Violations holds the detected robustness violation: at most one,
	// the least of the level the search stopped on (see search).
	Violations []*scm.Violation
	// AssertFail reports a failed user assertion, if any.
	AssertFail *prog.AssertFailure
	// Trace is a shortest SC run (sequence of thread-labelled memory
	// actions) to the violating state, or through the failing assertion's
	// step; the same at every worker count.
	Trace []explore.Step
	// States is the number of distinct ⟨program, SCM⟩ states explored. A
	// non-robust run counts the states through the successors of the
	// level it stopped on.
	States int
	// Elapsed is the wall-clock verification time.
	Elapsed time.Duration
	// StoreBytes is the peak footprint of the visited store
	// (explore.Sharded.Bytes): its tables, key arenas and trace links,
	// with their growth slack. A store recycled from an earlier search
	// counts the capacity it kept from it. 0 when nothing was explored.
	StoreBytes int
	// MetadataBits is the size of the SCM instrumentation per §5.1.
	MetadataBits int
	// Certificate reports that the Robust verdict was discharged by the
	// static pre-pass (Options.StaticPrune) without exploring any state:
	// the conflict graph has no cycle through two or more conflict
	// edges, so no SC run can witness a Theorem 5.3 violation.
	Certificate bool
	// PrunedLocs is the number of locations the pre-pass dropped from
	// the SCM instrumentation (0 when StaticPrune is off).
	PrunedLocs int
	// CritSharpened reports that constant propagation strictly shrank at
	// least one critical-value mask.
	CritSharpened bool
	// AmpleHits counts expanded states where the partial-order reduction
	// (Options.Reduce) replaced the full expansion by a single ample
	// representative; SleepSkips counts edges elided by sleep sets;
	// SymmetryFolds counts successor states canonicalized under a
	// non-identity thread permutation. All three are 0 with Reduce off.
	// They count first expansions only, and like States they are the same
	// at every worker count, on robust and non-robust runs alike.
	AmpleHits, SleepSkips, SymmetryFolds int64
	// Analysis holds the full pre-pass result when StaticPrune is on,
	// for -explain style reporting.
	Analysis *analysis.Result
}

// ErrStateBound is explore.ErrBound, returned when MaxStates is exceeded.
var ErrStateBound = explore.ErrBound

// verifier bundles the immutable per-run machinery, shared read-only by
// the search's workers and by Stepper: the compiled program, the monitor
// (nil for the plain-SC machine of VerifySC), and the racy-state flag.
type verifier struct {
	program *lang.Program
	p       *prog.P
	mon     *scm.Monitor
	hasNA   bool
	an      *analysis.Result // pre-pass result, nil unless Options.StaticPrune
}

func newVerifier(program *lang.Program, opts Options) (*verifier, error) {
	if err := program.Validate(); err != nil {
		return nil, err
	}
	p := prog.New(program)
	var an *analysis.Result
	if opts.StaticPrune {
		an = analysis.Analyze(program)
	}
	var crit []uint64
	switch {
	case opts.AbstractVals && an != nil:
		// The sharpened masks are a subset of prog.CriticalVals, which
		// Def 5.5 allows: any superset of the actually-compared values
		// is a sound critical set.
		crit = append([]uint64(nil), an.Crit...)
	case opts.AbstractVals:
		crit = prog.CriticalVals(program)
	default:
		crit = prog.FullCriticalVals(program)
	}
	if an != nil {
		// Untracked planes are identically zero (scm.Monitor.Tracked),
		// so their critical sets only waste encoding width.
		for x := range crit {
			if an.Tracked&(uint64(1)<<x) == 0 {
				crit[x] = 0
			}
		}
	}
	na := make([]bool, len(program.Locs))
	hasNA := false
	for i, li := range program.Locs {
		na[i] = li.NA
		hasNA = hasNA || li.NA
	}
	mon := scm.NewMonitor(program.NumThreads(), program.NumLocs(), program.ValCount, crit, na)
	mon.SRA = opts.Model == ModelSRA
	if an != nil {
		mon.Tracked = an.Tracked
	}
	return &verifier{program: program, p: p, mon: mon, hasNA: hasNA, an: an}, nil
}

// violation evaluates the per-state checks at the monitor state ms with
// the pending operations ops — the Theorem 5.3 conditions on every
// thread's operation, then the Definition 6.1 racy-state condition (§6) —
// and returns the first violation with its rank: the thread id, or the
// thread count for a race.
func (v *verifier) violation(ms *scm.State, ops []prog.MemOp) (*scm.Violation, int) {
	for t := range ops {
		if viol := v.mon.CheckOp(ms, lang.Tid(t), ops[t]); viol != nil {
			return viol, t
		}
	}
	if v.hasNA {
		if viol := v.mon.CheckRace(ops); viol != nil {
			return viol, len(ops)
		}
	}
	return nil, 0
}

// annotate copies the pre-pass summary fields into a verdict.
func (v *verifier) annotate(verdict *Verdict) {
	if v.an == nil {
		return
	}
	verdict.Analysis = v.an
	verdict.PrunedLocs = bits.OnesCount64(v.an.Pruned)
	verdict.CritSharpened = v.an.CritSharpened
}

// Verify decides execution-graph robustness of the program against RA.
func Verify(program *lang.Program, opts Options) (*Verdict, error) {
	if opts.StaticPrune {
		// Certificate fast path: if the conflict graph has no block with
		// two or more conflict edges (and neither assertions nor
		// non-atomic conflicts require exploration), the program is
		// robust — against RA and a fortiori against SRA, whose
		// Theorem 5.3 conditions are a subset — with zero states.
		start := time.Now()
		if err := program.Validate(); err != nil {
			return nil, err
		}
		if an := analysis.Analyze(program); an.Certificate {
			return &Verdict{
				Robust:        true,
				Certificate:   true,
				Analysis:      an,
				PrunedLocs:    bits.OnesCount64(an.Pruned),
				CritSharpened: an.CritSharpened,
				Elapsed:       time.Since(start),
			}, nil
		}
	}
	start := time.Now()
	v, err := newVerifier(program, opts)
	if err != nil {
		return nil, err
	}
	verdict := &Verdict{Robust: true, MetadataBits: v.mon.Bits()}
	v.annotate(verdict)
	ps0, fail := v.p.InitState()
	if fail != nil {
		verdict.Robust = false
		verdict.AssertFail = fail
	} else {
		s, err := v.explore(ps0, opts)
		if err != nil {
			return nil, err
		}
		verdict.States, verdict.StoreBytes = s.store.Len(), s.store.Bytes()
		verdict.AmpleHits, verdict.SleepSkips, verdict.SymmetryFolds = s.counters()
		if s.found != nil {
			trace, viol, fail := s.witness()
			verdict.Robust = false
			verdict.Trace = trace
			verdict.AssertFail = fail
			if viol != nil {
				verdict.Violations = []*scm.Violation{viol}
			}
		}
		s.release()
	}
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		return nil, canceled(opts.Ctx)
	}
	verdict.Elapsed = time.Since(start)
	return verdict, nil
}

// FormatTrace renders a verdict's counterexample trace with the program's
// location names, one step per line.
func FormatTrace(program *lang.Program, trace []explore.Step) string {
	var b strings.Builder
	for i, s := range trace {
		if s.Internal != explore.IntNone {
			fmt.Fprintf(&b, "%3d: %s\n", i+1, s.Internal)
			continue
		}
		fmt.Fprintf(&b, "%3d: %s: %s\n", i+1, program.Threads[s.Tid].Name, program.FmtLabel(s.Lab))
	}
	return b.String()
}

// Explain renders a human-readable description of a verdict.
func Explain(program *lang.Program, v *Verdict) string {
	var b strings.Builder
	if v.Analysis != nil {
		b.WriteString(v.Analysis.Describe(program))
	}
	if v.Certificate {
		fmt.Fprintf(&b, "%s: ROBUST against RA by static certificate (0 states explored, %v)\n",
			program.Name, v.Elapsed)
		return b.String()
	}
	if v.Robust {
		fmt.Fprintf(&b, "%s: ROBUST against RA (%d states, %v)\n", program.Name, v.States, v.Elapsed)
		return b.String()
	}
	fmt.Fprintf(&b, "%s: NOT robust against RA (%d states, %v)\n", program.Name, v.States, v.Elapsed)
	if v.AssertFail != nil {
		t := &program.Threads[v.AssertFail.Tid]
		fmt.Fprintf(&b, "  assertion failed under SC: thread %s pc %d\n", t.Name, v.AssertFail.PC)
	}
	for _, viol := range v.Violations {
		t := &program.Threads[viol.Tid]
		switch viol.Kind {
		case scm.NARace:
			t2 := &program.Threads[viol.Tid2]
			fmt.Fprintf(&b, "  %s: %s@pc%d races with %s@pc%d on %s\n",
				viol.Kind, t.Name, viol.PC, t2.Name, viol.PC2, program.LocName(viol.Loc))
		default:
			fmt.Fprintf(&b, "  %s: thread %s at pc %d (%s), location %s\n",
				viol.Kind, t.Name, viol.PC, program.FmtInst(t, &t.Insts[viol.PC]), program.LocName(viol.Loc))
		}
	}
	if len(v.Trace) > 0 {
		b.WriteString("  SC run to the violating state:\n")
		for _, line := range strings.Split(strings.TrimRight(FormatTrace(program, v.Trace), "\n"), "\n") {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	return b.String()
}
