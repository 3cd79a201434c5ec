// Package diffcheck is the differential oracle of the repository: it
// cross-checks every independent route we have to a robustness verdict
// against every other and reports any disagreement as a Finding.
//
// The routes, and what agreement means for each pair:
//
//   - SCM reduction (internal/core, Theorem 5.3) run sequentially,
//     in parallel, in hash-compact mode, and with full (non-abstract)
//     critical values: all four must return the same verdict, and the
//     exact-mode runs must agree on state counts when robust.
//   - Partial-order reduction (core.Options.Reduce: ample sets, sleep
//     sets, thread symmetry) run sequentially and in parallel: verdicts
//     must match the unreduced reference, the reduced state count can
//     never exceed the unreduced one, the two reduced runs must agree
//     exactly on robust programs, and every non-robust reduced verdict's
//     (symmetry-concretized) trace must replay under instrumented SC.
//   - RA timestamp machine (internal/staterobust, §3): execution-graph
//     robustness implies state robustness (Proposition 4.10), so the two
//     routes are related by an implication, not an equivalence — a
//     program the SCM route calls robust that the RA machine calls
//     state-non-robust is a bug in one of them. The comparison is gated
//     on programs without non-atomic locations and asserts, which state
//     robustness deliberately ignores.
//   - Model monotonicity: SRA behaviours are a subset of RA behaviours,
//     so RA-robust implies SRA-robust along both routes.
//   - Instrumented vs exhaustive TSO: the lazy single-delayer machine
//     (mode tso, model.CheckTSO) and the full store-buffer product (mode
//     state-tso, model.CheckState with model.NewTSO) decide the same
//     Definition 2.6 question, so their verdicts must agree exactly, and
//     on robust programs the lazy exploration — a subset of the full
//     product by construction — can never count more states. The
//     comparison is skipped when either run hits the store-buffer
//     capacity: both truncations under-approximate and the subset
//     relation between them is no longer a theorem.
//   - Thread symmetry under TSO: with a copy of one thread appended, so
//     that two threads are interchangeable, model.CheckTSO with
//     Limits.Reduce (the compound states folded) must match the unfolded
//     product in verdict, projection counts, witness length and buffer
//     bound, never explore more states than it or than the run with
//     Reduce off, and produce a witness that replays.
//   - Metamorphic fence insertion (§6, internal/fence): at the *state*
//     robustness level, inserting an SC fence can only remove weak
//     behaviours, so it never flips robust to non-robust. Note this is
//     deliberately NOT checked at the execution-graph level: the fence
//     is an RMW on a location shared by every fence, and its own rf/mo
//     edges can complete non-SC cycles that did not exist before — the
//     harness itself falsified the graph-level version of this relation
//     (see testdata/regressions/fence-nonmonotone-graph.lit).
//   - Metamorphic no-op insertion: an FADD(g, 0) into a fresh register
//     on a fresh private location only adds events whose edges are
//     po-aligned within one thread, so any execution-graph cycle through
//     them contracts to one avoiding them — the verdict must be exactly
//     unchanged, in both directions.
//   - Witness replay: a non-robust verdict must come with a trace that
//     actually replays — under instrumented SC (core.Stepper) for the
//     SCM route, under the timestamp machine for the RA route (see
//     staterobust.ReplayWitness), under the lazy single-delayer machine
//     for the instrumented TSO route (model.ReplayTSO).
//   - Witness refutation (internal/fence): fence.Enforce skips the
//     oracle on a candidate repair when a cached witness replays to a
//     violation of it. On a single-fence mutant of every non-robust
//     input, such a refutation must agree with the oracle's verdict on
//     the mutant.
//   - Syntax: Parse∘Format is a fixpoint and preserves the canonical
//     digest, so the pretty-printer can never corrupt a program.
//
// Engine runs are bounded; a run that exceeds its bound records a skip,
// never a finding. The package is pure (no I/O): cmd/fuzz drives it over
// generated programs and persists minimized findings.
package diffcheck

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fence"
	"repro/internal/lang"
	"repro/internal/model"
	"repro/internal/parser"
	"repro/internal/prog"
	"repro/internal/staterobust"
)

// Config bounds one battery run.
type Config struct {
	// MaxStates bounds each SCM-route engine run (0 means 200k states).
	MaxStates int
	// RAMaxStates bounds each RA-machine run, which explores compound
	// ⟨program, timestamped memory⟩ states and is by far the expensive
	// leg — timestamped memories of loopy programs blow up long before
	// the SCM instrumentation does (0 means 10k states; raising it
	// converts bound-skips into decided comparisons at linear cost).
	RAMaxStates int
	// ParWorkers is the worker count of the parallel-engine leg (0 means
	// 2: enough to exercise the parallel path without oversubscribing a
	// fuzzing loop that already runs one battery per core).
	ParWorkers int
	// SkipRA disables the RA-machine legs and everything derived from
	// them. Used by the minimizer when shrinking a finding that does not
	// involve the RA route.
	SkipRA bool
	// TSOMaxStates bounds each TSO-machine run — both the instrumented
	// and the exhaustive leg (0 means the RA bound).
	TSOMaxStates int
	// SkipTSO disables the instrumented-vs-exhaustive TSO leg.
	SkipTSO bool
}

func (c Config) maxStates() int {
	if c.MaxStates <= 0 {
		return 200_000
	}
	return c.MaxStates
}

func (c Config) raMaxStates() int {
	if c.RAMaxStates <= 0 {
		return 10_000
	}
	return c.RAMaxStates
}

func (c Config) tsoMaxStates() int {
	if c.TSOMaxStates <= 0 {
		return c.raMaxStates()
	}
	return c.TSOMaxStates
}

func (c Config) parWorkers() int {
	if c.ParWorkers <= 0 {
		return 2
	}
	return c.ParWorkers
}

// Finding is one disagreement between routes that must agree: a bug in at
// least one of them.
type Finding struct {
	// Check names the violated relation (e.g. "ra-vs-scm", "seq-vs-par",
	// "round-trip", "fence-monotone", "witness-replay-scm").
	Check string
	// Detail is a human-readable account of the disagreement.
	Detail string
	// Source is the program exhibiting it — the input program, or the
	// mutant for metamorphic checks.
	Source string
}

func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s", f.Check, f.Detail)
}

// Report is the outcome of one battery run.
type Report struct {
	// Findings holds the disagreements (empty on a clean run).
	Findings []Finding
	// Skipped names checks that hit a state bound and were not decided.
	Skipped []string
	// Verdict summarizes the sequential SCM-route verdict for statistics:
	// "robust", "non-robust", or "unknown".
	Verdict string
}

func (r *Report) addf(check, source, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{
		Check:  check,
		Detail: fmt.Sprintf(format, args...),
		Source: source,
	})
}

func (r *Report) skip(name string) {
	r.Skipped = append(r.Skipped, name)
}

// CheckSource runs the full battery on one program source.
func CheckSource(src string, cfg Config) *Report {
	r := &Report{Verdict: "unknown"}
	p, err := parser.Parse(src)
	if err != nil {
		r.addf("parse", src, "program does not parse: %v", err)
		return r
	}
	checkRoundTrip(r, p, src)
	runBattery(r, p, src, cfg)
	return r
}

// CheckProgram runs the battery on an already-parsed program (used by the
// minimizer, whose candidates exist only as ASTs).
func CheckProgram(p *lang.Program, cfg Config) *Report {
	r := &Report{Verdict: "unknown"}
	if err := p.Validate(); err != nil {
		r.addf("validate", "", "program does not validate: %v", err)
		return r
	}
	src := parser.Format(p)
	checkRoundTrip(r, p, src)
	runBattery(r, p, src, cfg)
	return r
}

// CheckVariantDigest asserts that a renamed/permuted rendering of the same
// program parses and has the same canonical digest — the invariance the
// verdict cache depends on. Returns nil when the pair agrees.
func CheckVariantDigest(src, variant string) *Finding {
	p, err := parser.Parse(src)
	if err != nil {
		return &Finding{Check: "parse", Detail: fmt.Sprintf("base does not parse: %v", err), Source: src}
	}
	q, err := parser.Parse(variant)
	if err != nil {
		return &Finding{Check: "variant-digest", Detail: fmt.Sprintf("variant does not parse: %v", err), Source: variant}
	}
	if dp, dq := prog.CanonicalDigest(p), prog.CanonicalDigest(q); dp != dq {
		return &Finding{
			Check:  "variant-digest",
			Detail: fmt.Sprintf("digest not invariant under renaming/permutation: %s vs %s\nbase:\n%s", dp, dq, src),
			Source: variant,
		}
	}
	return nil
}

// checkRoundTrip asserts that Format's output parses, is digest-equal to
// the input, and is a fixpoint of Parse∘Format.
func checkRoundTrip(r *Report, p *lang.Program, src string) {
	f := parser.Format(p)
	q, err := parser.Parse(f)
	if err != nil {
		r.addf("round-trip", src, "formatted listing does not parse: %v\nformatted:\n%s", err, f)
		return
	}
	if dp, dq := prog.CanonicalDigest(p), prog.CanonicalDigest(q); dp != dq {
		r.addf("round-trip", src, "digest changed across Parse∘Format: %s vs %s\nformatted:\n%s", dp, dq, f)
		return
	}
	if f2 := parser.Format(q); f2 != f {
		r.addf("format-fixpoint", src, "Format is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", f, f2)
	}
}

// hasExtras reports whether the program uses non-atomic locations or
// asserts — features the state-robustness route deliberately ignores
// (a failing assert simply has no successors there, and NA races are
// undefined behaviour outside Definition 2.6), so RA-vs-SCM comparisons
// are gated on their absence.
func hasExtras(p *lang.Program) bool {
	for i := range p.Locs {
		if p.Locs[i].NA {
			return true
		}
	}
	for ti := range p.Threads {
		for ii := range p.Threads[ti].Insts {
			if p.Threads[ti].Insts[ii].Kind == lang.IAssert {
				return true
			}
		}
	}
	return false
}

// runBattery runs every verdict-level check on one program.
func runBattery(r *Report, p *lang.Program, src string, cfg Config) {
	base := core.Options{AbstractVals: true, Workers: 1, MaxStates: cfg.maxStates()}

	verify := func(name string, prg *lang.Program, opts core.Options) (*core.Verdict, bool) {
		v, err := core.Verify(prg, opts)
		if err != nil {
			if errors.Is(err, explore.ErrBound) {
				r.skip(name)
			} else {
				r.addf("engine-error", src, "%s: %v", name, err)
			}
			return nil, false
		}
		return v, true
	}
	checkState := func(name string, prg *lang.Program, sra bool) (*staterobust.Result, bool) {
		lim := staterobust.Limits{MaxStates: cfg.raMaxStates(), Workers: 1}
		var (
			res *staterobust.Result
			err error
		)
		if sra {
			res, err = staterobust.CheckSRA(prg, lim)
		} else {
			res, err = staterobust.CheckRA(prg, lim)
		}
		if err != nil {
			if errors.Is(err, explore.ErrBound) {
				r.skip(name)
			} else {
				r.addf("engine-error", src, "%s: %v", name, err)
			}
			return nil, false
		}
		return res, true
	}

	// SCM route, four ways. The sequential exact run is the reference.
	seq, seqOK := verify("seq", p, base)
	if seqOK {
		if seq.Robust {
			r.Verdict = "robust"
		} else {
			r.Verdict = "non-robust"
		}
	}

	parOpts := base
	parOpts.Workers = cfg.parWorkers()
	if par, ok := verify("par", p, parOpts); ok && seqOK {
		if seq.Robust != par.Robust {
			r.addf("seq-vs-par", src, "sequential robust=%v, parallel robust=%v", seq.Robust, par.Robust)
		} else if seq.States != par.States {
			r.addf("seq-vs-par", src, "exact state counts differ: sequential %d, parallel %d", seq.States, par.States)
		}
	}

	hcOpts := base
	hcOpts.HashCompact = true
	if hc, ok := verify("hash-compact", p, hcOpts); ok && seqOK && seq.Robust != hc.Robust {
		r.addf("hash-compact", src, "exact robust=%v, hash-compact robust=%v", seq.Robust, hc.Robust)
	}

	fullOpts := base
	fullOpts.AbstractVals = false
	if full, ok := verify("full-vals", p, fullOpts); ok && seqOK && seq.Robust != full.Robust {
		r.addf("abstract-vs-full", src, "abstract-values robust=%v, full-values robust=%v (§5.1 abstraction must preserve the verdict)", seq.Robust, full.Robust)
	}

	// Static-pruning parity: the conflict pre-pass must never change a
	// verdict (a certificate on a non-robust program is a soundness bug
	// caught here as a verdict mismatch). On robust runs — the only ones
	// that explore the full space — the pruned state count can only
	// shrink, and must be bit-identical when the analysis found nothing
	// to prune or sharpen.
	pruneOpts := base
	pruneOpts.StaticPrune = true
	if pr, ok := verify("prune", p, pruneOpts); ok && seqOK {
		if seq.Robust != pr.Robust {
			r.addf("prune-parity", src, "unpruned robust=%v, pruned robust=%v (static pruning must preserve the verdict)", seq.Robust, pr.Robust)
		} else if seq.Robust && pr.States > seq.States {
			r.addf("prune-parity", src, "pruned run explored more states (%d) than the unpruned run (%d)", pr.States, seq.States)
		} else if seq.Robust && !pr.Certificate && pr.PrunedLocs == 0 && !pr.CritSharpened && pr.States != seq.States {
			r.addf("prune-parity", src, "analysis pruned nothing yet the state count changed: pruned %d, unpruned %d", pr.States, seq.States)
		}
		prParOpts := pruneOpts
		prParOpts.Workers = cfg.parWorkers()
		if pp, ok := verify("prune-par", p, prParOpts); ok {
			if pr.Robust != pp.Robust {
				r.addf("prune-parity", src, "pruned sequential robust=%v, pruned parallel robust=%v", pr.Robust, pp.Robust)
			} else if pr.Robust && pr.States != pp.States {
				r.addf("prune-parity", src, "pruned exact state counts differ on a robust program: sequential %d, parallel %d", pr.States, pp.States)
			}
		}
	}

	// Partial-order reduction parity: ample sets, sleep sets, and thread
	// symmetry must never change a verdict, never enlarge the explored set,
	// and must stay worker-count-deterministic (sleep sets elide edges, not
	// states). A non-robust reduced verdict carries a concretized trace —
	// symmetry canonicalization permutes thread identities mid-trace — so
	// replaying it under instrumented SC also checks the concretization.
	redOpts := base
	redOpts.Reduce = true
	if rd, ok := verify("reduce", p, redOpts); ok && seqOK {
		if seq.Robust != rd.Robust {
			r.addf("reduce-parity", src, "unreduced robust=%v, reduced robust=%v (partial-order reduction must preserve the verdict)", seq.Robust, rd.Robust)
		} else if seq.Robust && rd.States > seq.States {
			r.addf("reduce-parity", src, "reduced run explored more states (%d) than the unreduced run (%d)", rd.States, seq.States)
		}
		if !rd.Robust {
			if err := replaySC(p, rd, true, false); err != nil {
				r.addf("witness-replay-scm", src, "reduced-run witness does not replay: %v", err)
			}
		}
		rdParOpts := redOpts
		rdParOpts.Workers = cfg.parWorkers()
		if rp, ok := verify("reduce-par", p, rdParOpts); ok {
			if rd.Robust != rp.Robust {
				r.addf("reduce-parity", src, "reduced sequential robust=%v, reduced parallel robust=%v", rd.Robust, rp.Robust)
			} else if rd.Robust && rd.States != rp.States {
				r.addf("reduce-parity", src, "reduced exact state counts differ on a robust program: sequential %d, parallel %d", rd.States, rp.States)
			}
			if !rp.Robust {
				if err := replaySC(p, rp, true, false); err != nil {
					r.addf("witness-replay-scm", src, "reduced-parallel witness does not replay: %v", err)
				}
			}
		}
	}

	sraOpts := base
	sraOpts.Model = core.ModelSRA
	sraSeq, sraOK := verify("seq-sra", p, sraOpts)
	if seqOK && sraOK && seq.Robust && !sraSeq.Robust {
		r.addf("ra-implies-sra", src, "robust against RA but not against SRA — SRA behaviours are a subset of RA's")
	}

	// SCM-route witness replay: a non-robust verdict's trace must replay
	// under instrumented SC and end in a violating state.
	if seqOK && !seq.Robust {
		if err := replaySC(p, seq, true, false); err != nil {
			r.addf("witness-replay-scm", src, "RA-route witness does not replay: %v", err)
		}
	}
	if sraOK && !sraSeq.Robust {
		if err := replaySC(p, sraSeq, true, true); err != nil {
			r.addf("witness-replay-scm", src, "SRA-route witness does not replay: %v", err)
		}
	}

	// RA timestamp machine route, plus the Proposition 4.10 implication
	// and its witness replay.
	if !cfg.SkipRA {
		extras := hasExtras(p)
		lim := staterobust.Limits{MaxStates: cfg.raMaxStates(), Workers: 1}
		stRA, stOK := checkState("state-ra", p, false)
		// SRA explores a subset of RA's timestamp choices but rarely a
		// small one; when the RA leg already hit the bound, don't pay
		// for a second bounded run that will too.
		var (
			stSRA   *staterobust.Result
			stSraOK bool
		)
		if stOK {
			stSRA, stSraOK = checkState("state-sra", p, true)
		} else {
			r.skip("state-sra")
		}
		if !extras {
			if seqOK && stOK && seq.Robust && !stRA.Robust {
				r.addf("ra-vs-scm", src, "SCM route: execution-graph robust; RA machine: state-non-robust — contradicts Proposition 4.10")
			}
			if sraOK && stSraOK && sraSeq.Robust && !stSRA.Robust {
				r.addf("ra-vs-scm", src, "SCM route: execution-graph SRA-robust; SRA machine: state-non-robust — contradicts Proposition 4.10")
			}
		}
		if stOK && stSraOK && stRA.Robust && !stSRA.Robust {
			r.addf("ra-implies-sra", src, "state-robust against RA but not against SRA — SRA behaviours are a subset of RA's")
		}
		if stOK && !stRA.Robust {
			if err := staterobust.ReplayWitness(p, stRA.WitnessTrace, false, lim); err != nil {
				if errors.Is(err, explore.ErrBound) {
					r.skip("witness-replay-ra")
				} else {
					r.addf("witness-replay-ra", src, "RA-machine witness does not replay: %v", err)
				}
			}
		}
		if stSraOK && !stSRA.Robust {
			if err := staterobust.ReplayWitness(p, stSRA.WitnessTrace, true, lim); err != nil {
				if errors.Is(err, explore.ErrBound) {
					r.skip("witness-replay-sra")
				} else {
					r.addf("witness-replay-ra", src, "SRA-machine witness does not replay: %v", err)
				}
			}
		}
	}

	// Instrumented-vs-exhaustive TSO: two independent implementations of
	// the same state-robustness question. Verdicts must agree exactly; on
	// robust programs the lazy single-delayer exploration is a subset of
	// the full store-buffer product, so its state count can never be
	// larger. Both legs run with the same Limits, so a bound skip on one
	// usually means a bound skip on the other.
	if !cfg.SkipTSO {
		tsoLim := staterobust.Limits{MaxStates: cfg.tsoMaxStates(), Workers: 1}
		runTSO := func(mode string) (*staterobust.Result, bool) {
			res, err := model.Check(mode, p, tsoLim)
			if err != nil {
				if errors.Is(err, explore.ErrBound) {
					r.skip(mode)
				} else {
					r.addf("engine-error", src, "%s: %v", mode, err)
				}
				return nil, false
			}
			return res, true
		}
		inst, instOK := runTSO(model.ModeTSO)
		var (
			exh   *staterobust.Result
			exhOK bool
		)
		if instOK {
			exh, exhOK = runTSO(model.ModeStateTSO)
		} else {
			r.skip(model.ModeStateTSO)
		}
		switch {
		case !instOK || !exhOK:
		case inst.BufBoundHit || exh.BufBoundHit:
			// A capacity-truncated run under-approximates; the two
			// truncations are not comparable.
			r.skip("tso-vs-state-tso")
		case inst.Robust != exh.Robust:
			r.addf("tso-vs-state-tso", src, "instrumented TSO robust=%v, exhaustive TSO robust=%v", inst.Robust, exh.Robust)
		case exh.Robust && inst.Explored > exh.Explored:
			r.addf("tso-vs-state-tso", src, "instrumented exploration (%d states) exceeds the exhaustive product (%d) on a robust program", inst.Explored, exh.Explored)
		}
		if instOK && !inst.Robust {
			if err := model.ReplayTSO(p, inst.WitnessTrace, tsoLim); err != nil {
				if errors.Is(err, explore.ErrBound) {
					r.skip("witness-replay-tso")
				} else {
					r.addf("witness-replay-tso", src, "instrumented-TSO witness does not replay: %v", err)
				}
			}
		}
		if instOK {
			checkTSOSymmetry(r, p, tsoLim)
		} else {
			r.skip("tso-symmetry") // the copy only adds states
		}
	}

	// Metamorphic no-op insertion: a private FADD(g, 0) must leave the
	// execution-graph verdict exactly unchanged (both directions).
	if seqOK {
		if mutant, ok := noopRMWMutant(p); ok {
			if mv, ok := verify("noop-mutant", mutant, base); ok && mv.Robust != seq.Robust {
				r.addf("noop-rmw-neutral", parser.Format(mutant), "inserting a no-op RMW on a private location changed the verdict: robust %v → %v", seq.Robust, mv.Robust)
			}
		}
	}

	// Witness refutation (fence.Refutes, the test fence.Enforce uses to
	// skip the oracle): when the input's witness replays to a violation
	// on a single-fence mutant, the oracle must call the mutant
	// non-robust.
	if seqOK && !seq.Robust && seq.AssertFail == nil {
		checkFenceRefute(r, p, src, seq.Trace, base, verify)
	}

	// Metamorphic fence insertion, at the level where it is a theorem.
	if !cfg.SkipRA {
		checkFenceMonotone(r, p, src, cfg)
	}
}

// unfolded hides a machine's thread symmetry, so model.CheckState explores
// its product unfolded while Limits.Reduce still folds the projections.
type unfolded struct{ model.MemoryModel }

func (u unfolded) Symmetry([][]int) model.ThreadPerm { return nil }
func (u unfolded) Fork() model.MemoryModel           { return unfolded{u.MemoryModel.Fork()} }

// checkTSOSymmetry checks symmetry folding in mode tso. Generated programs
// almost never have interchangeable threads, so it appends a copy of the
// program's first delayer candidate (of thread 0 when there is none) and
// runs CheckTSO on the result with Limits.Reduce on and off. The folded
// run must match the unfolded product with folded projections exactly in
// verdict, SCStates, WeakStates, witness length and BufBoundHit, and
// explore no more states. The run with Reduce off counts raw projections,
// so against it the counts may only shrink; the verdict, witness length
// and BufBoundHit must still agree. A folded witness must replay. A run
// over the state bound is a skip.
func checkTSOSymmetry(r *Report, p *lang.Program, lim staterobust.Limits) {
	if len(p.Threads) >= explore.MaxPermThreads {
		return // the copy would leave nothing to fold
	}
	twin := cloneProgram(p)
	cands := model.DelayerCandidates(p)
	copyOf := 0
	if len(cands) > 0 {
		copyOf = int(cands[0])
	}
	th := p.Threads[copyOf]
	th.Name += "_twin"
	twin.Threads = append(twin.Threads, th)
	src := parser.Format(twin)
	check := func(name string, run func() (*staterobust.Result, error)) (*staterobust.Result, bool) {
		res, err := run()
		if err != nil {
			if errors.Is(err, explore.ErrBound) {
				r.skip(name)
			} else {
				r.addf("engine-error", src, "%s: %v", name, err)
			}
			return nil, false
		}
		return res, true
	}
	lim.Reduce = true
	on, ok := check("tso-symmetry", func() (*staterobust.Result, error) { return model.CheckTSO(twin, lim) })
	if !ok {
		return
	}
	if !on.Robust {
		if err := model.ReplayTSO(twin, on.WitnessTrace, lim); err != nil {
			if errors.Is(err, explore.ErrBound) {
				r.skip("witness-replay-tso-symmetry")
			} else {
				r.addf("tso-symmetry", src, "folded witness does not replay: %v", err)
			}
		}
	}
	summary := func(x *staterobust.Result) string {
		return fmt.Sprintf("robust=%v explored=%d sc=%d weak=%d trace=%d bufcap=%v",
			x.Robust, x.Explored, x.SCStates, x.WeakStates, len(x.WitnessTrace), x.BufBoundHit)
	}
	if tcands := model.DelayerCandidates(twin); len(tcands) > 0 {
		plain, ok := check("tso-symmetry", func() (*staterobust.Result, error) {
			return model.CheckState(twin, unfolded{model.NewTSOLazy(twin, lim.TSOBufCap, tcands)}, lim)
		})
		if ok && (on.Robust != plain.Robust || on.SCStates != plain.SCStates || on.WeakStates != plain.WeakStates ||
			len(on.WitnessTrace) != len(plain.WitnessTrace) || on.BufBoundHit != plain.BufBoundHit || on.Explored > plain.Explored) {
			r.addf("tso-symmetry", src, "folded %s, unfolded product %s", summary(on), summary(plain))
		}
	}
	lim.Reduce = false
	off, ok := check("tso-symmetry", func() (*staterobust.Result, error) { return model.CheckTSO(twin, lim) })
	if ok && (on.Robust != off.Robust || len(on.WitnessTrace) != len(off.WitnessTrace) || on.BufBoundHit != off.BufBoundHit ||
		on.Explored > off.Explored || on.SCStates > off.SCStates || on.WeakStates > off.WeakStates) {
		r.addf("tso-symmetry", src, "folded %s, Reduce off %s", summary(on), summary(off))
	}
}

// checkFenceRefute replays the witness trace of p on p with one fence at
// the fencePoint position. A replay that reaches a violating state is a
// refutation, which is sound only if the oracle agrees that the mutant is
// non-robust.
func checkFenceRefute(r *Report, p *lang.Program, src string, trace []explore.Step, opts core.Options,
	verify func(string, *lang.Program, core.Options) (*core.Verdict, bool)) {
	tid, at, ok := fencePoint(p)
	if !ok {
		return
	}
	pls := []fence.Placement{{Kind: fence.InsertFence, Tid: tid, At: at}}
	witness := make([]lang.Tid, len(trace))
	for i, s := range trace {
		witness[i] = s.Tid
	}
	refuted, err := fence.Refutes(p, pls, witness, opts)
	if err != nil {
		r.addf("engine-error", src, "fence-refute: %v", err)
		return
	}
	if !refuted {
		return
	}
	mutant := fence.Apply(p, pls)
	if mv, ok := verify("fence-refute", mutant, opts); ok && mv.Robust {
		r.addf("fence-refute", parser.Format(mutant), "the witness replays to a violation with a fence in thread %d before instruction %d, but the fenced program verifies robust", tid, at)
	}
}

// checkFenceMonotone is the sound form of the fence metamorphic relation:
// *state* robustness is monotone under inserting an SC fence (an RA run
// of the fenced program erases to an RA run of the original reaching the
// matching state — fence registers always read 0 because every fence
// message carries 0 — and fence steps re-insert into any SC run, where
// FADD is always enabled). The two CheckRA runs share the mutant's
// derived headroom: the fence adds a write instruction, and letting each
// run derive its own headroom would give the mutant strictly more
// timestamp freedom than the baseline, turning an approximation artifact
// into a fake finding.
func checkFenceMonotone(r *Report, p *lang.Program, src string, cfg Config) {
	tid, at, ok := fencePoint(p)
	if !ok {
		return
	}
	mutant := fence.Apply(p, []fence.Placement{{Kind: fence.InsertFence, Tid: tid, At: at}})
	headroom := staterobust.RAHeadroom(mutant, staterobust.Limits{})
	lim := staterobust.Limits{MaxStates: cfg.raMaxStates(), Workers: 1, RAHeadroom: headroom}
	pre, err := staterobust.CheckRA(p, lim)
	if err != nil || !pre.Robust {
		// A bound, or a weakness the shared headroom exposes on the
		// baseline itself: the monotone premise is gone either way.
		if errors.Is(err, explore.ErrBound) {
			r.skip("fence-monotone")
		} else if err != nil {
			r.addf("engine-error", src, "fence-monotone baseline: %v", err)
		}
		return
	}
	post, err := staterobust.CheckRA(mutant, lim)
	if err != nil {
		if errors.Is(err, explore.ErrBound) {
			r.skip("fence-monotone")
		} else {
			r.addf("engine-error", src, "fence-monotone mutant: %v", err)
		}
		return
	}
	if !post.Robust {
		r.addf("fence-monotone", parser.Format(mutant), "inserting a fence flipped a state-robust program to state-non-robust (thread %d, instruction %d)", tid, at)
	}
}

// noopRMWMutant inserts `r := FADD(g, 0)` — g a fresh private location, r
// a fresh register — at the fencePoint position, remapping jump targets
// the way fence.Apply does. Returns false when the program is at the
// location limit.
func noopRMWMutant(p *lang.Program) (*lang.Program, bool) {
	if len(p.Locs) >= 64 {
		return nil, false
	}
	tid, at, ok := fencePoint(p)
	if !ok {
		return nil, false
	}
	mutant := cloneProgram(p)
	g := lang.Loc(len(mutant.Locs))
	mutant.Locs = append(mutant.Locs, lang.LocInfo{Name: "noopg"})
	th := &mutant.Threads[tid]
	reg := lang.Reg(th.NumRegs)
	th.NumRegs++
	th.RegNames = append(th.RegNames, "rnoop")
	ins := lang.Inst{
		Kind: lang.IFADD,
		Reg:  reg,
		Mem:  lang.MemRef{Base: g, Size: 1},
		E:    lang.Const(0),
	}
	th.Insts = append(th.Insts[:at:at], append([]lang.Inst{ins}, th.Insts[at:]...)...)
	for k := range th.Insts {
		in := &th.Insts[k]
		if in.Kind == lang.IGoto && in.Target > at {
			in.Target++
		}
	}
	return mutant, true
}

// fencePoint picks a deterministic fence insertion point: the middle of
// the longest thread.
func fencePoint(p *lang.Program) (lang.Tid, int, bool) {
	best, n := -1, 0
	for ti := range p.Threads {
		if l := len(p.Threads[ti].Insts); l > n {
			best, n = ti, l
		}
	}
	if best < 0 || n == 0 {
		return 0, 0, false
	}
	return lang.Tid(best), n / 2, true
}
