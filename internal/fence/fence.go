// Package fence implements automatic robustness enforcement — the
// application the paper's introduction motivates: "robustness of
// non-robust programs may be enforced (by placing SC-fences or RMW
// operations), and verifying the robustness of the strengthened program"
// (§1; §9 lists the efficient version as future work on top of the
// decision procedure).
//
// Two repair moves are supported, matching the paper's two recipes:
//
//   - inserting an SC fence: Example 3.6's FADD(f, 0) on a single
//     distinguished location shared by all fences (a per-location or
//     per-thread fence has no synchronizing power under RA);
//   - strengthening a plain write into an RMW (an XCHG), the repair
//     behind the peterson-ra-dmitriy variant of §7.
//
// The search enumerates repair sets smallest-first, using the core
// verifier as the oracle, so a returned repair is verified robust and no
// strictly smaller candidate within the chosen strategy is.
//
// The search is counterexample-guided. Every candidate the oracle finds
// non-robust leaves a witness: the thread schedule of its counterexample
// trace, in the original program's numbering with the inserted fence
// steps removed. Before a candidate goes to the oracle, the cached
// witnesses are replayed on it with a core.Stepper (each thread runs the
// fences it reaches, and pending fences are flushed at the end); on the
// corpus, replay refutes all but a few dozen of the thousands of
// candidates a search visits.
//
// The soundness rule: a replay refutes the candidate only when it reaches
// a state of the candidate's instrumented SC machine — built exactly as
// the oracle builds it — where the oracle's own per-state checks report a
// violation; the oracle would then report one too. Any other outcome (a
// blocked or terminated thread, a failing assertion, a schedule that ends
// without a violation) leaves the candidate to the oracle. Every robust
// answer therefore still comes from core.Verify, and the placements
// returned are the ones the exhaustive search returns.
//
// One behaviour differs from verifying every candidate: a candidate
// refuted by replay is never explored, so it cannot fail with
// core.ErrStateBound under Verify.MaxStates. A search that would have
// stopped with that error may now return a repair; it never returns a
// different robust one.
package fence

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/parser"
	"repro/internal/prog"
)

// RepairKind distinguishes the two repair moves.
type RepairKind uint8

// Repair kinds.
const (
	// InsertFence places an SC fence before the instruction.
	InsertFence RepairKind = iota
	// StrengthenWrite turns the plain write at the instruction into an
	// XCHG.
	StrengthenWrite
)

// Placement identifies one repair in the original program's numbering:
// a fence inserted before instruction At of thread Tid, or the write at
// instruction At strengthened into an RMW.
type Placement struct {
	Kind RepairKind
	Tid  lang.Tid
	At   int
}

// String renders the placement.
func (pl Placement) String() string {
	verb := "fence before"
	if pl.Kind == StrengthenWrite {
		verb = "strengthen write at"
	}
	return fmt.Sprintf("thread %d: %s instruction %d", pl.Tid, verb, pl.At)
}

// Strategy selects which repair moves the search may use.
type Strategy uint8

// Strategies.
const (
	// Fences searches over SC-fence insertions only (the default).
	Fences Strategy = iota
	// RMWs searches over write strengthenings only.
	RMWs
	// Mixed searches over both move kinds.
	Mixed
)

// Options configures the search.
type Options struct {
	// MaxRepairs bounds the repair-set size searched (default 4).
	MaxRepairs int
	// Strategy selects the repair moves (default Fences).
	Strategy Strategy
	// Verify configures the robustness oracle.
	Verify core.Options
}

// ErrNotEnforceable is returned when no repair within MaxRepairs makes
// the program robust (e.g. the weak behaviour is inherent, or the program
// has a data race or failing assertion that these repairs cannot fix).
var ErrNotEnforceable = fmt.Errorf("fence: no repair within the bound enforces robustness")

// Apply returns a copy of the program with the given repairs applied. For
// fences it adds the distinguished fence location (the parser's FenceLoc,
// reused if already present) and a scratch register per modified thread;
// jump targets are remapped so that a jump to a fenced instruction
// executes the fence first (a fence inside a loop runs every iteration).
// Strengthened writes keep their position and targets.
func Apply(p *lang.Program, placements []Placement) *lang.Program {
	return applyInto(&lang.Program{}, p, placements)
}

// applyInto is Apply writing the strengthened program into dst, reusing
// its slices: the search builds every candidate in one scratch program.
func applyInto(dst, p *lang.Program, placements []Placement) *lang.Program {
	out := dst
	out.Name = p.Name
	out.ValCount = p.ValCount
	out.Locs = append(out.Locs[:0], p.Locs...)
	if cap(out.Threads) < len(p.Threads) {
		out.Threads = make([]lang.SeqProg, len(p.Threads))
	}
	out.Threads = out.Threads[:len(p.Threads)]
	fl, haveFence := p.LocByName(parser.FenceLoc)
	for ti := range p.Threads {
		src := &p.Threads[ti]
		tid := lang.Tid(ti)
		n := len(src.Insts)
		nFences := countIn(placements, InsertFence, tid, 0, n)
		modified := nFences > 0 || countIn(placements, StrengthenWrite, tid, 0, n) > 0
		t := &out.Threads[ti]
		t.Name = src.Name
		t.NumRegs = src.NumRegs
		t.RegNames = append(t.RegNames[:0], src.RegNames...)
		t.Insts = slices.Grow(t.Insts[:0], n+nFences)
		var scratch lang.Reg
		if modified {
			scratch = lang.Reg(t.NumRegs)
			t.NumRegs++
			t.RegNames = append(t.RegNames, "__fr")
		}
		if nFences > 0 && !haveFence {
			haveFence = true
			fl = lang.Loc(len(out.Locs))
			out.Locs = append(out.Locs, lang.LocInfo{Name: parser.FenceLoc})
		}
		for pc := range src.Insts {
			for i := countIn(placements, InsertFence, tid, pc, pc+1); i > 0; i-- {
				t.Insts = append(t.Insts, lang.Inst{
					Kind: lang.IFADD,
					Reg:  scratch,
					Mem:  lang.MemRef{Base: fl, Size: 1},
					E:    lang.Const(0),
					Line: src.Insts[pc].Line,
				})
			}
			in := src.Insts[pc]
			if in.Kind == lang.IGoto {
				in.Target += countIn(placements, InsertFence, tid, 0, in.Target)
			}
			if countIn(placements, StrengthenWrite, tid, pc, pc+1) > 0 {
				if in.Kind != lang.IWrite {
					panic("fence: StrengthenWrite on a non-write instruction")
				}
				in = lang.Inst{
					Kind: lang.IXCHG,
					Reg:  scratch,
					Mem:  in.Mem,
					E:    in.E,
					Line: in.Line,
				}
			}
			t.Insts = append(t.Insts, in)
		}
	}
	return out
}

// countIn returns the number of placements of the given kind in thread
// tid at instructions lo ≤ At < hi. Repair sets are small (MaxRepairs),
// so Apply scans them instead of building per-thread index maps.
func countIn(placements []Placement, kind RepairKind, tid lang.Tid, lo, hi int) int {
	n := 0
	for _, pl := range placements {
		if pl.Kind == kind && pl.Tid == tid && lo <= pl.At && pl.At < hi {
			n++
		}
	}
	return n
}

// candidates returns the repair moves the strategy admits: fences before
// every memory instruction with an earlier memory instruction in the same
// thread (anywhere else a fence is equivalent to one of these points or
// useless), and strengthenings of every plain write to an atomic
// location (an RMW on a non-atomic cell is not a valid program).
func candidates(p *lang.Program, strategy Strategy) []Placement {
	var out []Placement
	for ti := range p.Threads {
		seenMem := false
		for pc := range p.Threads[ti].Insts {
			in := &p.Threads[ti].Insts[pc]
			if !in.IsMem() {
				continue
			}
			if strategy != RMWs && seenMem {
				out = append(out, Placement{Kind: InsertFence, Tid: lang.Tid(ti), At: pc})
			}
			if strategy != Fences && in.Kind == lang.IWrite && !p.Locs[in.Mem.Base].NA {
				out = append(out, Placement{Kind: StrengthenWrite, Tid: lang.Tid(ti), At: pc})
			}
			seenMem = true
		}
	}
	return out
}

// Enforce searches for a minimal repair set that makes the program
// execution-graph robust against RA. It returns the placements (empty if
// the program is already robust) and the strengthened program. The
// search polls opts.Verify.Ctx before every candidate, refuted ones
// included: a cancelled context yields an error wrapping
// core.ErrCanceled, never a result.
func Enforce(p *lang.Program, opts Options) ([]Placement, *lang.Program, error) {
	if opts.MaxRepairs <= 0 {
		opts.MaxRepairs = 4
	}
	s := &search{p: p, opts: verifyOptions(opts.Verify)}
	q := &lang.Program{}
	if ok, err := s.robust(p); err != nil {
		return nil, nil, err
	} else if ok {
		return nil, p, nil
	}
	cands := candidates(p, opts.Strategy)
	pick := make([]int, 0, opts.MaxRepairs)
	pls := make([]Placement, 0, opts.MaxRepairs)
	var try func(size, from int) ([]Placement, *lang.Program, error)
	try = func(size, from int) ([]Placement, *lang.Program, error) {
		if size == 0 {
			pls = pls[:0]
			for _, ci := range pick {
				pls = append(pls, cands[ci])
			}
			// Candidates are built in one scratch program; the robust
			// one ends the search and is returned.
			ok, err := s.robust(applyInto(q, p, pls))
			if err != nil {
				return nil, nil, err
			}
			if ok {
				return pls, q, nil
			}
			return nil, nil, nil
		}
		for ci := from; ci < len(cands); ci++ {
			pick = append(pick, ci)
			found, fixed, err := try(size-1, ci+1)
			pick = pick[:len(pick)-1]
			if err != nil || found != nil {
				return found, fixed, err
			}
		}
		return nil, nil, nil
	}
	for size := 1; size <= opts.MaxRepairs; size++ {
		found, fixed, err := try(size, 0)
		if err != nil {
			return nil, nil, err
		}
		if found != nil {
			return found, fixed, nil
		}
	}
	return nil, nil, ErrNotEnforceable
}

// verifyOptions returns the oracle configuration: the caller's, or
// core.DefaultOptions when every field is zero. Options carries a func
// (the progress hook) and so is not comparable; the zero test is
// field-wise and must name every field.
func verifyOptions(v core.Options) core.Options {
	if v.Model == core.ModelRA && !v.AbstractVals && v.MaxStates == 0 &&
		!v.HashCompact && v.Workers == 0 &&
		v.Ctx == nil && v.Progress == nil && v.ProgressEvery == 0 &&
		!v.Reduce && !v.StaticPrune {
		return core.DefaultOptions()
	}
	return v
}

// onRefute, when non-nil, is called with every candidate a cached witness
// refutes, before the search reuses its storage (tests confirm each
// against the oracle).
var onRefute func(q *lang.Program)

// search is the state of one Enforce run: the original program, the
// oracle configuration, and the witness cache — one thread schedule per
// candidate the oracle found non-robust, in the original program's
// numbering with inserted fence steps removed, most recently useful
// first.
type search struct {
	p       *lang.Program
	opts    core.Options
	witness [][]lang.Tid
}

// robust decides whether the candidate q (p itself, or Apply of a repair
// set to p) is robust: false when a cached witness replays to a violation
// of q, otherwise the oracle's answer.
func (s *search) robust(q *lang.Program) (bool, error) {
	if ctx := s.opts.Ctx; ctx != nil && ctx.Err() != nil {
		return false, fmt.Errorf("%w: %w", explore.ErrCanceled, context.Cause(ctx))
	}
	c, err := newCandidate(s.p, q, s.opts)
	if err != nil {
		return false, err
	}
	for i, w := range s.witness {
		if c.refutes(w) {
			copy(s.witness[1:i+1], s.witness[:i])
			s.witness[0] = w
			if onRefute != nil {
				onRefute(q)
			}
			return false, nil
		}
	}
	v, err := core.Verify(q, s.opts)
	if err != nil {
		return false, err
	}
	if v.AssertFail != nil {
		return false, fmt.Errorf("fence: program has a failing assertion under SC")
	}
	if !v.Robust {
		s.witness = slices.Insert(s.witness, 0, c.schedule(v.Trace))
	}
	return v.Robust, nil
}

// Refutes reports whether the witness — a thread schedule of p, such as
// the thread ids of a non-robust core.Verify trace — replays on
// Apply(p, placements) to a state where the oracle's per-state checks
// (under opts' Model, AbstractVals and StaticPrune) report a violation:
// the test Enforce uses to skip the oracle. A true answer implies
// core.Verify calls the repaired program non-robust.
func Refutes(p *lang.Program, placements []Placement, witness []lang.Tid, opts core.Options) (bool, error) {
	c, err := newCandidate(p, Apply(p, placements), opts)
	if err != nil {
		return false, err
	}
	return c.refutes(witness), nil
}

// candidate is one program under test with an instrumented-SC stepper on
// it, built once and reset for every cached witness replayed.
type candidate struct {
	p, q *lang.Program
	st   *core.Stepper
}

func newCandidate(p, q *lang.Program, opts core.Options) (*candidate, error) {
	st, err := core.NewStepper(q, opts)
	if err != nil {
		return nil, err
	}
	return &candidate{p: p, q: q, st: st}, nil
}

// atFence reports whether thread t's pending operation is a fence Apply
// inserted: an FADD into the scratch register, which no instruction of
// the original program can name.
func (c *candidate) atFence(t lang.Tid) bool {
	op := c.st.Op(t)
	if op.Kind != prog.OpFADD {
		return false
	}
	return c.q.Threads[t].Insts[op.PC].Reg == lang.Reg(c.p.Threads[t].NumRegs)
}

// step runs thread t's pending operation. The replay stops when the
// step is impossible (the thread terminated or is blocked), fails an
// assertion, or reaches a violating state; violated is true only in the
// last case.
func (c *candidate) step(t lang.Tid) (violated, stop bool) {
	if _, ok, fail := c.st.Step(t); !ok || fail != nil {
		return false, true
	}
	if c.st.Violation() != nil {
		return true, true
	}
	return false, false
}

// fences runs the inserted fences thread t is poised at.
func (c *candidate) fences(t lang.Tid) (violated, stop bool) {
	for c.atFence(t) {
		if violated, stop = c.step(t); stop {
			return violated, stop
		}
	}
	return false, false
}

// refutes replays witness w on the candidate: each scheduled thread first
// runs the inserted fences it has reached, then its own step, and the
// pending fences of every thread are flushed at the end. Only a state
// where Verify's per-state checks report a violation refutes; any other
// outcome is unknown and leaves the candidate to the oracle.
func (c *candidate) refutes(w []lang.Tid) bool {
	if c.st.Reset() != nil {
		return false
	}
	if c.st.Violation() != nil {
		return true
	}
	for _, t := range w {
		if violated, stop := c.fences(t); stop {
			return violated
		}
		if violated, stop := c.step(t); stop {
			return violated
		}
	}
	for t := range c.q.Threads {
		if violated, stop := c.fences(lang.Tid(t)); stop {
			return violated
		}
	}
	return false
}

// schedule turns an oracle trace on the candidate into a witness: its
// thread schedule without the inserted fence steps.
func (c *candidate) schedule(trace []explore.Step) []lang.Tid {
	c.st.Reset()
	w := make([]lang.Tid, 0, len(trace))
	for _, s := range trace {
		if !c.atFence(s.Tid) {
			w = append(w, s.Tid)
		}
		c.st.Step(s.Tid)
	}
	return w
}
