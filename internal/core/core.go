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
// Exploration is parallel by default (Options.Workers): robustness
// checking is embarrassingly parallel at the state level, since the
// Theorem 5.3 conditions are evaluated per state against the read-only
// monitor. Workers share a sharded visited set and hand the frontier off
// in batches (see internal/explore); Workers = 1 runs the sequential
// reference implementation, against which the parallel engine's verdicts
// and full-run state counts are pinned by tests.
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
	// Exceeding the bound yields an error, never a wrong verdict.
	MaxStates int
	// KeepAllViolations collects every violating state instead of
	// stopping at the first (useful for fence inference).
	KeepAllViolations bool
	// HashCompact stores 128-bit hashes of states instead of full state
	// encodings in the visited set (Spin's hashcompact mode). It cuts
	// memory roughly 4× on large runs; a hash collision could in
	// principle prune a state (probability < n²·2⁻¹²⁸ for n states —
	// negligible, but the exact mode is the default and is used by all
	// correctness tests).
	HashCompact bool
	// Workers sets the number of parallel exploration workers: 0 uses
	// GOMAXPROCS, 1 forces the sequential reference implementation.
	// Verdicts are worker-count-independent; on full (robust) runs so is
	// the state count. Only counterexample traces may differ.
	Workers int
	// Ctx, when non-nil, bounds the verification by a deadline or an
	// explicit cancellation: the exploration polls it cooperatively (every
	// few hundred expansions at most) and a cancelled run returns
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
	// and stays worker-count-independent on robust runs. The zero value is
	// off; the rocker CLI enables it by default (-noreduce opts out).
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
// Options.Progress. The frontier depth is States - Expanded: every
// interned state is eventually expanded exactly once.
type Progress struct {
	// States is the number of distinct states interned so far.
	States int
	// Expanded is the number of states fully expanded so far.
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

// ctxPollMask gates the sequential loops' context polls: the context is
// checked every ctxPollMask+1 expansions, which bounds the number of
// expansions a cancelled sequential run performs before stopping.
const ctxPollMask = 255

// DefaultOptions returns the standard configuration (abstract values on,
// no state bound, exact visited set, parallel exploration).
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
	// Violations holds the detected robustness violations (at most one
	// unless Options.KeepAllViolations).
	Violations []*scm.Violation
	// AssertFail reports a failed user assertion, if any.
	AssertFail *prog.AssertFailure
	// Trace is an SC run (sequence of thread-labelled memory actions)
	// leading to a violating state (the first found; a shortest one under
	// Workers = 1).
	Trace []explore.Step
	// States is the number of distinct ⟨program, SCM⟩ states explored.
	States int
	// Elapsed is the wall-clock verification time.
	Elapsed time.Duration
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
	// AmpleHits is (like States) worker-count-independent on full runs;
	// SleepSkips and SymmetryFolds depend on exploration order and may
	// vary across parallel runs.
	AmpleHits, SleepSkips, SymmetryFolds int64
	// Analysis holds the full pre-pass result when StaticPrune is on,
	// for -explain style reporting.
	Analysis *analysis.Result
}

// ErrStateBound is explore.ErrBound, returned when MaxStates is exceeded.
var ErrStateBound = explore.ErrBound

// verifier bundles the immutable per-run machinery shared by the
// sequential and parallel paths: the compiled program, the monitor (both
// read-only during exploration, so workers share them), and the
// racy-state flag.
type verifier struct {
	p     *prog.P
	mon   *scm.Monitor
	hasNA bool
	an    *analysis.Result // pre-pass result, nil unless Options.StaticPrune
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
	return &verifier{p: p, mon: mon, hasNA: hasNA, an: an}, nil
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

// scratch is the per-worker decode/expansion state: a reusable current
// program state and a successor state for the clone-free ApplyInto kernel
// (register slices included), the pending-operation buffer, current and
// successor monitor states, the encode buffer, a buffer for
// re-materializing exact-mode frontier keys from the arena, and the
// free list of recycled hash-compact frontier payloads. The sequential
// path uses a single instance; with it, steady-state expansion performs no
// heap allocation.
type scratch struct {
	cur    prog.State
	nxt    prog.State
	ops    []prog.MemOp
	curMS  scm.State
	nextMS *scm.State
	keyBuf []byte
	popBuf []byte
	free   [][]byte
	// Partial-order reduction scratch (Options.Reduce): the
	// canonicalization permutation buffer and per-worker reduction
	// counters, summed into the verdict after the run.
	perm                 []uint8
	cAmple, cSleep, cSym int64
}

func (v *verifier) newScratch(program *lang.Program) *scratch {
	s := &scratch{nextMS: v.mon.Init(), ops: make([]prog.MemOp, len(v.p.Threads))}
	s.cur = prog.State{Threads: make([]prog.ThreadState, len(v.p.Threads))}
	s.nxt = prog.State{Threads: make([]prog.ThreadState, len(v.p.Threads))}
	for i := range v.p.Threads {
		s.cur.Threads[i].Regs = make([]lang.Val, program.Threads[i].NumRegs)
		s.nxt.Threads[i].Regs = make([]lang.Val, program.Threads[i].NumRegs)
	}
	return s
}

// pushPayload returns the frontier payload for a newly interned state: nil
// in exact mode (the queue carries only the id; bytes are re-materialized
// from the store's arena on expansion) and a recycled copy of key in
// hash-compact mode, where the store keeps no key bytes.
func (s *scratch) pushPayload(hashCompact bool, key []byte) []byte {
	if !hashCompact {
		return nil
	}
	var buf []byte
	if n := len(s.free); n > 0 {
		buf = s.free[n-1][:0]
		s.free = s.free[:n-1]
	}
	return append(buf, key...)
}

// recycle takes back an expanded hash-compact frontier payload.
func (s *scratch) recycle(buf []byte) {
	if buf != nil {
		s.free = append(s.free, buf)
	}
}

func (s *scratch) encode(v *verifier, ps prog.State, ms *scm.State) []byte {
	s.keyBuf = s.keyBuf[:0]
	s.keyBuf = v.p.EncodeState(s.keyBuf, ps)
	s.keyBuf = v.mon.Encode(s.keyBuf, ms)
	return s.keyBuf
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
	if opts.workerCount() > 1 {
		return verifyParallel(program, opts)
	}
	start := time.Now()
	v, err := newVerifier(program, opts)
	if err != nil {
		return nil, err
	}
	verdict := &Verdict{Robust: true, MetadataBits: v.mon.Bits()}
	v.annotate(verdict)
	var ws *scratch
	finish := func() (*Verdict, error) {
		// A canceled run never reports a verdict, even if exploration
		// happened to finish before the poll noticed: the caller asked for
		// cancellation, and a deterministic ErrCanceled is what the
		// service layer's "canceled, not a verdict" contract needs.
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return nil, canceled(opts.Ctx)
		}
		if ws != nil {
			verdict.AmpleHits, verdict.SleepSkips, verdict.SymmetryFolds = ws.cAmple, ws.cSleep, ws.cSym
		}
		verdict.Elapsed = time.Since(start)
		return verdict, nil
	}
	ps0, fail := v.p.InitState()
	if fail != nil {
		verdict.Robust = false
		verdict.AssertFail = fail
		return finish()
	}
	ms0 := v.mon.Init()
	var red *reducer
	if opts.Reduce {
		red = newReducer(program, v.p, v.mon)
	}
	// Sleep sets need the exact store (re-expansion re-materializes keys,
	// which hash-compacted stores cannot) and per-state uint64 masks.
	useSleep := red != nil && !opts.HashCompact && red.nT <= maxSleepThreads

	var store *explore.Store
	if opts.HashCompact {
		store = explore.NewHashCompactStore()
	} else {
		store = explore.NewStore()
	}
	// The frontier is zero-copy. In exact mode it is implicit: sequential
	// BFS interns states in exactly the order it pops them, so the dense id
	// sequence 0, 1, 2, ... IS the FIFO frontier — no queue exists at all,
	// the visited store doubles as the frontier, and the packed encoding
	// (program state followed by SCM state) is re-materialized from the
	// store's arena on expansion. In hash-compact mode, where the store
	// keeps no key bytes, a real queue carries payload copies whose buffers
	// are recycled through a free list.
	var queue explore.Queue[[]byte]
	ws = v.newScratch(program)
	if red != nil {
		ws.perm = make([]uint8, red.nT)
	}
	rootKey := ws.encode(v, ps0, ms0)
	root, _ := store.AddBytes(rootKey, -1, explore.Step{})
	if opts.HashCompact {
		queue.Push(root, ws.pushPayload(true, rootKey))
	}

	report := func(id int32, viol *scm.Violation) bool {
		verdict.Robust = false
		if verdict.Trace == nil {
			verdict.Trace = store.Trace(id)
			if red != nil && red.symm() {
				// The trace and the violation are recorded on the symmetry
				// quotient; concretize them back into the original
				// program's thread names. Later violations (with
				// KeepAllViolations) stay canonical: each names a thread of
				// the same class, which is truthful by symmetry.
				viol = concretizeViolation(viol, explore.Concretize(verdict.Trace, red.nT))
			}
		}
		verdict.Violations = append(verdict.Violations, viol)
		return !opts.KeepAllViolations
	}

	every := int64(opts.ProgressEvery)
	if every <= 0 {
		every = 4096
	}
	expanded := int64(0)
	next := int32(0)
	// requeue holds already-expanded states whose sleep mask strictly
	// shrank on a revisit: they must be re-expanded so edges the larger
	// mask elided get explored (checks and counters are not repeated).
	var requeue []int32
	for {
		var item explore.QItem[[]byte]
		requeued := false
		if opts.HashCompact {
			var ok bool
			if item, ok = queue.Pop(); !ok {
				break
			}
		} else if int(next) < store.Len() {
			item = explore.QItem[[]byte]{ID: next, St: store.KeyBytes(next)}
			next++
		} else if n := len(requeue); n > 0 {
			id := requeue[n-1]
			requeue = requeue[:n-1]
			item = explore.QItem[[]byte]{ID: id, St: store.KeyBytes(id)}
			requeued = true
		} else {
			break
		}
		if opts.MaxStates > 0 && store.Len() > opts.MaxStates {
			return nil, fmt.Errorf("%w (%d states)", explore.ErrBound, store.Len())
		}
		if opts.Ctx != nil && expanded&ctxPollMask == 0 && opts.Ctx.Err() != nil {
			return nil, canceled(opts.Ctx)
		}
		expanded++
		if opts.Progress != nil && expanded%every == 0 {
			opts.Progress(Progress{States: store.Len(), Expanded: expanded})
		}
		itemKey := item.St
		n := v.p.DecodeState(itemKey, ws.cur)
		v.mon.Decode(itemKey[n:], &ws.curMS)
		ops := ws.ops
		v.p.OpsInto(ops, ws.cur)

		if !requeued {
			// Theorem 5.3 conditions for every thread's pending operation.
			for t := range ops {
				if viol := v.mon.CheckOp(&ws.curMS, lang.Tid(t), ops[t]); viol != nil {
					if report(item.ID, viol) {
						verdict.States = store.Len()
						return finish()
					}
				}
			}
			// Definition 6.1 racy-state condition (§6).
			if v.hasNA {
				if viol := v.mon.CheckRace(ops); viol != nil {
					if report(item.ID, viol) {
						verdict.States = store.Len()
						return finish()
					}
				}
			}
		}

		// Successors: every SC-enabled thread action — or, with Reduce, a
		// single ample representative when one qualifies, minus any edges
		// the state's sleep set proves redundant (ample states ignore the
		// sleep set: the one representative is always expanded).
		ampleT := -1
		if red != nil {
			ampleT = red.ample(ws.curMS.M, ws.cur, ws.nxt, ops)
			if ampleT >= 0 && !requeued {
				ws.cAmple++
			}
		}
		var sleepZ, expandedSoFar uint64
		if useSleep {
			sleepZ = store.Sleep(item.ID)
		}
		for t := range ops {
			op := ops[t]
			if op.Kind == prog.OpNone {
				continue
			}
			if ampleT >= 0 {
				if t != ampleT {
					continue
				}
			} else if useSleep && sleepZ>>t&1 != 0 {
				if !requeued {
					ws.cSleep++
				}
				continue
			}
			label, enabled := prog.SCLabel(op, ws.curMS.M[op.Loc], program.ValCount)
			if !enabled {
				continue // blocked wait/BCAS
			}
			afail := v.p.Threads[t].ApplyInto(ws.cur.Threads[t], label, &ws.nxt.Threads[t])
			step := explore.Step{Tid: lang.Tid(t), Lab: label}
			if afail != nil {
				verdict.Robust = false
				verdict.Trace = append(store.Trace(item.ID), step)
				if red != nil && red.symm() {
					explore.Concretize(verdict.Trace, red.nT)
					af := *afail
					af.Tid = verdict.Trace[len(verdict.Trace)-1].Tid
					afail = &af
				}
				verdict.AssertFail = afail
				verdict.States = store.Len()
				return finish()
			}
			var cz uint64
			if useSleep {
				cz = childSleep(ops, t, sleepZ|expandedSoFar)
			}
			expandedSoFar |= uint64(1) << t
			savedTS := ws.cur.Threads[t]
			ws.cur.Threads[t] = ws.nxt.Threads[t]
			ws.nextMS.CopyFrom(&ws.curMS)
			v.mon.Step(ws.nextMS, lang.Tid(t), label)
			var key []byte
			if red != nil && red.symm() && !red.canonPerm(ws.cur, ws.nextMS, ws.perm) {
				if !requeued {
					ws.cSym++
				}
				step.Perm = explore.PackPerm(ws.perm)
				cz = permuteMask(cz, ws.perm)
				ws.keyBuf = ws.keyBuf[:0]
				ws.keyBuf = v.p.EncodeStatePerm(ws.keyBuf, ws.cur, ws.perm)
				ws.keyBuf = v.mon.EncodePerm(ws.keyBuf, ws.nextMS, ws.perm)
				key = ws.keyBuf
			} else {
				key = ws.encode(v, ws.cur, ws.nextMS)
			}
			ws.cur.Threads[t] = savedTS
			if useSleep {
				if id, _, shrunk := store.AddBytesSleep(key, item.ID, step, cz); shrunk && id < next {
					requeue = append(requeue, id)
				}
			} else {
				id, isNew := store.AddBytes(key, item.ID, step)
				if isNew && opts.HashCompact {
					queue.Push(id, ws.pushPayload(true, key))
				}
			}
		}
		if opts.HashCompact {
			ws.recycle(item.St)
		}
	}
	verdict.States = store.Len()
	return finish()
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
