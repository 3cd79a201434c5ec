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
// witnesses are replayed on it (each thread runs the fences it reaches,
// and pending fences are flushed at the end); on the corpus, replay
// refutes all but a few dozen of the thousands of candidates a search
// visits.
//
// The replays run on one machine per search. Once the input is found
// non-robust, every candidate move is applied at once and one
// core.Stepper is built on the result. Each move is a site, one
// instruction of that shared program, and every site starts switched
// off: an off fence is the ε instruction `scratch := 0`, an off
// strengthening the original write. A candidate switches its own sites
// on (the FADD or XCHG that Apply would write) while its witnesses
// replay, and back off on every return, so a refuted candidate costs no
// Apply, no validation, no prog.New and no monitor. Only the candidates
// that survive replay are built with Apply and sent to core.Verify; a
// non-robust one's witness is read off the shared machine with its
// sites on.
//
// The soundness rule: a replay refutes the candidate only when it reaches
// a state where the oracle's own per-state checks, on a monitor built as
// the oracle builds it, report a violation; the oracle would then report
// one too. Any other outcome (a blocked or terminated thread, a failing
// assertion, a schedule that ends without a violation) leaves the
// candidate to the oracle. Every robust answer therefore still comes
// from core.Verify, and the placements returned are the ones the
// exhaustive search returns. The shared machine keeps the rule for three
// reasons:
//
//   - Same states. The scratch register is never read, so `scratch :=
//     0`, an FADD or an XCHG into it leaves every other register's
//     liveness unchanged, and prog.Thread interprets lang.Inst directly,
//     so a rewritten site needs no recompiling. An off site is a
//     thread-local ε step, which the ε-closure (initial state included)
//     steps over before any check: a schedule yields the same labels,
//     pending operations and monitor states on the shared machine as on
//     Apply(p, P) for the candidate P.
//   - Same monitor shape. The shared monitor has the candidate's threads,
//     ValCount, non-atomic flags and critical sets: prog.CriticalVals
//     marks only wait, CAS and BCAS operands, which Apply never adds.
//     Under Mixed, a candidate of strengthenings only lacks the fence
//     location; the shared machine's plane for it is never touched, and
//     planes are independent (scm.Monitor.Tracked).
//   - No StaticPrune. The shared monitor is built unpruned whatever the
//     options say. A violation of the unpruned monitor at an SC-reachable
//     state means the candidate is not robust, and pruning is
//     verdict-exact, so the pruned oracle agrees.
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
	out, _ := apply(p, placements)
	return out
}

// apply is Apply that also returns where each placement landed: the
// index in its thread of the inserted fence or the strengthened write.
func apply(p *lang.Program, placements []Placement) (*lang.Program, []int) {
	out := &lang.Program{
		Name:     p.Name,
		ValCount: p.ValCount,
		Locs:     slices.Clone(p.Locs),
		Threads:  make([]lang.SeqProg, len(p.Threads)),
	}
	at := make([]int, len(placements))
	fl, haveFence := p.LocByName(parser.FenceLoc)
	for ti := range p.Threads {
		src := &p.Threads[ti]
		tid := lang.Tid(ti)
		n := len(src.Insts)
		// shift[pc] counts the fences placed before instructions < pc.
		shift := make([]int, n+1)
		modified := false
		for _, pl := range placements {
			if pl.Tid == tid {
				modified = true
				if pl.Kind == InsertFence {
					shift[pl.At+1]++
				}
			}
		}
		for pc := range n {
			shift[pc+1] += shift[pc]
		}
		t := &out.Threads[ti]
		t.Name = src.Name
		t.NumRegs = src.NumRegs
		t.RegNames = slices.Clone(src.RegNames)
		t.Insts = make([]lang.Inst, 0, n+shift[n])
		var scratch lang.Reg
		if modified {
			scratch = lang.Reg(t.NumRegs)
			t.NumRegs++
			t.RegNames = append(t.RegNames, "__fr")
		}
		if shift[n] > 0 && !haveFence {
			haveFence = true
			fl = lang.Loc(len(out.Locs))
			out.Locs = append(out.Locs, lang.LocInfo{Name: parser.FenceLoc})
		}
		for pc, in := range src.Insts {
			if in.Kind == lang.IGoto {
				in.Target += shift[max(0, min(in.Target, n))]
			}
			// The instruction itself lands after the fences placed
			// before it.
			self := len(t.Insts) + shift[pc+1] - shift[pc]
			for i, pl := range placements {
				switch {
				case pl.Tid != tid || pl.At != pc:
				case pl.Kind == InsertFence:
					at[i] = len(t.Insts)
					t.Insts = append(t.Insts, lang.Inst{
						Kind: lang.IFADD,
						Reg:  scratch,
						Mem:  lang.MemRef{Base: fl, Size: 1},
						E:    lang.Const(0),
						Line: in.Line,
					})
				case src.Insts[pc].Kind != lang.IWrite:
					panic("fence: StrengthenWrite on a non-write instruction")
				default:
					at[i] = self
					in = lang.Inst{
						Kind: lang.IXCHG,
						Reg:  scratch,
						Mem:  in.Mem,
						E:    in.E,
						Line: in.Line,
					}
				}
			}
			t.Insts = append(t.Insts, in)
		}
	}
	return out, at
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
	v, err := s.verify(p)
	if err != nil {
		return nil, nil, err
	}
	if v.Robust {
		return nil, p, nil
	}
	s.cands = candidates(p, opts.Strategy)
	if s.m, err = newMachine(p, s.cands, s.opts); err != nil {
		return nil, nil, err
	}
	s.witness = [][]lang.Tid{s.m.schedule(v.Trace)}
	pick := make([]int, 0, opts.MaxRepairs)
	var try func(size, from int) ([]Placement, *lang.Program, error)
	try = func(size, from int) ([]Placement, *lang.Program, error) {
		if size == 0 {
			return s.robust(pick)
		}
		for ci := from; ci < len(s.cands); ci++ {
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

// onReplay, when non-nil, is called after the cached witnesses were
// replayed on a candidate, with the witnesses in the order replayed and
// whether one refuted the candidate (tests confirm refutations against
// the oracle and against a replay on the candidate's own program).
var onReplay func(pls []Placement, witness [][]lang.Tid, refuted bool)

// search is the state of one Enforce run: the original program, the
// oracle configuration, the candidate moves with the replay machine that
// holds them all, and the witness cache — one thread schedule per
// candidate the oracle found non-robust, in the original program's
// numbering with inserted fence steps removed, most recently useful
// first.
type search struct {
	p       *lang.Program
	opts    core.Options
	cands   []Placement
	m       *machine
	witness [][]lang.Tid
}

// canceled returns an error wrapping core.ErrCanceled once the search's
// context is done, and nil before.
func (s *search) canceled() error {
	if ctx := s.opts.Ctx; ctx != nil && ctx.Err() != nil {
		return fmt.Errorf("%w: %w", explore.ErrCanceled, context.Cause(ctx))
	}
	return nil
}

// verify polls the context and runs the oracle on q.
func (s *search) verify(q *lang.Program) (*core.Verdict, error) {
	if err := s.canceled(); err != nil {
		return nil, err
	}
	v, err := core.Verify(q, s.opts)
	if err != nil {
		return nil, err
	}
	if v.AssertFail != nil {
		return nil, fmt.Errorf("fence: program has a failing assertion under SC")
	}
	return v, nil
}

// robust decides the candidate made of the moves pick: nil when a cached
// witness replays to a violation with its sites switched on, otherwise
// the oracle's answer on Apply of its placements — those placements and
// the repaired program when it is robust. The sites are switched back
// off on every return.
func (s *search) robust(pick []int) ([]Placement, *lang.Program, error) {
	if err := s.canceled(); err != nil {
		return nil, nil, err
	}
	s.m.set(pick, true)
	defer s.m.set(pick, false)
	for i, w := range s.witness {
		if s.m.refutes(w) {
			if onReplay != nil {
				onReplay(s.placements(pick), s.witness, true)
			}
			copy(s.witness[1:i+1], s.witness[:i])
			s.witness[0] = w
			return nil, nil, nil
		}
	}
	pls := s.placements(pick)
	if onReplay != nil {
		onReplay(pls, s.witness, false)
	}
	q := Apply(s.p, pls)
	v, err := s.verify(q)
	if err != nil {
		return nil, nil, err
	}
	if !v.Robust {
		s.witness = slices.Insert(s.witness, 0, s.m.schedule(v.Trace))
		return nil, nil, nil
	}
	return pls, q, nil
}

// placements returns the moves pick names.
func (s *search) placements(pick []int) []Placement {
	pls := make([]Placement, len(pick))
	for i, ci := range pick {
		pls[i] = s.cands[ci]
	}
	return pls
}

// Refutes reports whether the witness — a thread schedule of p, such as
// the thread ids of a non-robust core.Verify trace — replays on
// Apply(p, placements) to a state where the oracle's per-state checks
// (under opts' Model and AbstractVals, without StaticPrune) report a
// violation: the test Enforce uses to skip the oracle, run on the same
// replay machine. A true answer implies core.Verify calls the repaired
// program non-robust under opts, StaticPrune included.
func Refutes(p *lang.Program, placements []Placement, witness []lang.Tid, opts core.Options) (bool, error) {
	m, err := newMachine(p, placements, opts)
	if err != nil {
		return false, err
	}
	all := make([]int, len(placements))
	for i := range all {
		all[i] = i
	}
	m.set(all, true)
	return m.refutes(witness), nil
}

// machine is the replay machine of one search (see the package doc):
// Apply of every candidate move to p, with an instrumented-SC stepper on
// it, and each move's site.
type machine struct {
	p, all *lang.Program
	st     *core.Stepper
	sites  []site
}

// site is one move's instruction in the shared program and its two
// forms.
type site struct {
	tid     lang.Tid
	pc      int
	on, off lang.Inst
}

// newMachine builds the replay machine for the moves under opts' Model
// and AbstractVals. The monitor is built without StaticPrune: the
// package doc gives the reason.
func newMachine(p *lang.Program, moves []Placement, opts core.Options) (*machine, error) {
	all, at := apply(p, moves)
	m := &machine{p: p, all: all, sites: make([]site, len(moves))}
	for i, pl := range moves {
		in := &all.Threads[pl.Tid].Insts[at[i]]
		off := p.Threads[pl.Tid].Insts[pl.At]
		if pl.Kind == InsertFence {
			off = lang.Inst{Kind: lang.IAssign, Reg: in.Reg, E: lang.Const(0), Line: in.Line}
		}
		m.sites[i] = site{tid: pl.Tid, pc: at[i], on: *in, off: off}
		*in = off
	}
	opts.StaticPrune = false
	st, err := core.NewStepper(all, opts)
	if err != nil {
		return nil, err
	}
	m.st = st
	return m, nil
}

// set switches the sites of the moves pick on or off.
func (m *machine) set(pick []int, on bool) {
	for _, ci := range pick {
		s := &m.sites[ci]
		in := s.off
		if on {
			in = s.on
		}
		m.all.Threads[s.tid].Insts[s.pc] = in
	}
}

// atFence reports whether thread t's pending operation is a switched-on
// fence: an FADD into the scratch register, which no instruction of the
// original program can name.
func (m *machine) atFence(t lang.Tid) bool {
	op := m.st.Op(t)
	if op.Kind != prog.OpFADD {
		return false
	}
	return m.all.Threads[t].Insts[op.PC].Reg == lang.Reg(m.p.Threads[t].NumRegs)
}

// step runs thread t's pending operation. The replay stops when the
// step is impossible (the thread terminated or is blocked), fails an
// assertion, or reaches a violating state; violated is true only in the
// last case.
func (m *machine) step(t lang.Tid) (violated, stop bool) {
	if _, ok, fail := m.st.Step(t); !ok || fail != nil {
		return false, true
	}
	if m.st.Violation() != nil {
		return true, true
	}
	return false, false
}

// fences runs the switched-on fences thread t is poised at.
func (m *machine) fences(t lang.Tid) (violated, stop bool) {
	for m.atFence(t) {
		if violated, stop = m.step(t); stop {
			return violated, stop
		}
	}
	return false, false
}

// refutes replays witness w with the current sites: each scheduled
// thread first runs the fences it has reached, then its own step, and
// the pending fences of every thread are flushed at the end. Only a
// state where Verify's per-state checks report a violation refutes; any
// other outcome is unknown and leaves the candidate to the oracle.
func (m *machine) refutes(w []lang.Tid) bool {
	if m.st.Reset() != nil {
		return false
	}
	if m.st.Violation() != nil {
		return true
	}
	for _, t := range w {
		if violated, stop := m.fences(t); stop {
			return violated
		}
		if violated, stop := m.step(t); stop {
			return violated
		}
	}
	for t := range m.all.Threads {
		if violated, stop := m.fences(lang.Tid(t)); stop {
			return violated
		}
	}
	return false
}

// schedule turns an oracle trace on the candidate whose sites are on
// into a witness: its thread schedule without the fence steps.
func (m *machine) schedule(trace []explore.Step) []lang.Tid {
	m.st.Reset()
	w := make([]lang.Tid, 0, len(trace))
	for _, s := range trace {
		if !m.atFence(s.Tid) {
			w = append(w, s.Tid)
		}
		m.st.Step(s.Tid)
	}
	return w
}
