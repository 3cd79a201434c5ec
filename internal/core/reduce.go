package core

// Conflict-graph-guided partial-order reduction (Options.Reduce).
//
// Three mutually compatible techniques shrink the explored quotient of the
// ⟨program, SCM⟩ product without changing any verdict:
//
//   - Ample sets. At a state with two or more enabled threads, a thread
//     whose pending operation is invisible to every other thread — its
//     location is outside every other thread's forward may-access summary
//     (full privacy), or the operation is a plain read and the location is
//     outside every other thread's forward may-write summary (read-only
//     sharing) — may stand in for the full expansion: every deferred
//     interleaving is a commuted permutation of an explored one. The
//     summaries come from analysis.AccessSets (cell-precise via constant
//     propagation), so independence is judged on what threads can still do,
//     not on their whole text. Dynamic side conditions keep the classic
//     provisos: conditionally-enabled operations (await, blocking CAS)
//     never lead an ample set (C1: deferred enabledness must be invariant);
//     all threads' Theorem 5.3 / race conditions are evaluated at every
//     visited state, and the monitor checks of a deferred operation are
//     invariant along independent steps, so no violation is postponed past
//     the state that exhibits it (C2); and an ample step must strictly
//     advance the representative's pc, so no cycle consists of ample steps
//     only (C3).
//
//   - Sleep sets. Each stored state carries a mask of threads whose pending
//     operations are provably redundant there: exploring them would only
//     commute with an already-explored edge of the parent. On revisits the
//     masks intersect, and a strict shrink of an expanded state's mask
//     expands it again on the next level, so formerly elided edges are
//     explored (the standard fixpoint discipline on non-tree state
//     graphs). Sleep sets elide edges, never states, so the distinct-state
//     count of a full run is unchanged by them: the final masks are the
//     greatest fixpoint of a monotone system, which chaotic iteration
//     reaches in any order. Each level's masks are the intersection over
//     the level's parents, so every level, and the count of a run stopped
//     on one, is worker-count-independent too. Exact visited set only —
//     hash-compacted stores drop the keys of expanded states.
//
//   - Thread symmetry. Threads with byte-identical code (prog.SymClasses'
//     raw serialization, register indices verbatim) are interchangeable:
//     the interleaving semantics and the SCM monitor treat thread
//     identities symmetrically, so permuting such threads maps runs to
//     runs. Successor states are interned canonically — class members
//     sorted by their full per-thread content (program block, then the
//     thread-indexed monitor words) — collapsing each orbit to one
//     representative. The applied permutation is packed into the trace
//     step (explore.PackPerm), and counterexample traces are concretized
//     back into runs of the original program by composing the per-step
//     permutations (explore.Concretize).

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/analysis"
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/memsc"
	"repro/internal/prog"
	"repro/internal/scm"
)

// maxSymThreads bounds thread-symmetry reduction (explore.PackPerm).
// Programs with more threads still get ample and sleep sets.
const maxSymThreads = explore.MaxPermThreads

// maxSleepThreads bounds sleep-set reduction (per-state uint64 masks).
const maxSleepThreads = 64

// reducer is the immutable per-run reduction oracle, shared read-only by
// all workers; mutable scratch (the permutation buffer, counters) lives in
// the search's workers.
type reducer struct {
	prog *lang.Program
	p    *prog.P
	mon  *scm.Monitor // nil in the SC-only explorer
	// acc[t][pc] / wr[t][pc]: locations thread t may access / write at or
	// after pc (analysis.AccessSets).
	acc, wr [][]uint64
	// classes are the symmetry classes of interchangeable threads
	// (nil: symmetry reduction off).
	classes [][]int
	vc      int
	nT      int
}

func newReducer(program *lang.Program, p *prog.P, mon *scm.Monitor) *reducer {
	acc, wr := analysis.AccessSets(program)
	r := &reducer{prog: program, p: p, mon: mon, acc: acc, wr: wr,
		vc: program.ValCount, nT: program.NumThreads()}
	if r.nT <= maxSymThreads {
		r.classes = prog.SymClasses(program)
	}
	return r
}

func (r *reducer) symm() bool { return r.classes != nil }

// ample picks one thread whose pending operation may stand in for the full
// expansion of the current state, or -1 to require full expansion. labs
// and en are the SC labels of the pending operations ops and whether each
// is enabled (scLabels); nxt is caller scratch for the trial step. When
// stepped is true, nxt.Threads[t] holds the chosen thread's successor; a
// chosen thread whose trial step fails an assertion has none.
func (r *reducer) ample(cur, nxt prog.State, ops []prog.MemOp, labs []lang.Label, en []bool) (t int, stepped bool) {
	return r.ampleEx(cur, nxt, ops, labs, en, nil)
}

// scLabels sets labs[t] and en[t] to the SC label of thread t's pending
// operation in ops at memory mem, and whether it is enabled (a
// terminated thread's is not).
func scLabels(ops []prog.MemOp, mem []lang.Val, valCount int, labs []lang.Label, en []bool) {
	for t, op := range ops {
		labs[t], en[t] = lang.Label{}, false
		if op.Kind != prog.OpNone {
			labs[t], en[t] = prog.SCLabel(op, mem[op.Loc], valCount)
		}
	}
}

// ampleEx is ample with an optional per-candidate narration hook (used by
// ExplainReduce; nil on the hot path, costing only the guard).
func (r *reducer) ampleEx(cur, nxt prog.State, ops []prog.MemOp, labs []lang.Label, en []bool, note func(t int, msg string)) (int, bool) {
	enabled := 0
	for _, ok := range en {
		if ok {
			enabled++
		}
	}
	if enabled < 2 {
		if note != nil {
			note(-1, "fewer than two enabled threads: full expansion is already minimal")
		}
		return -1, false
	}
	for t := range ops {
		op := ops[t]
		switch op.Kind {
		case prog.OpNone:
			if note != nil {
				note(t, "terminated")
			}
			continue
		case prog.OpWait, prog.OpBCAS:
			// Conditionally-enabled operations never lead an ample set:
			// their enabledness is not invariant under other threads'
			// steps, which C1 requires of the deferred context.
			if note != nil {
				note(t, fmt.Sprintf("pending %s on %s is conditionally enabled; never an ample representative",
					opKindName(op.Kind), r.prog.LocName(op.Loc)))
			}
			continue
		}
		if !en[t] {
			if note != nil {
				note(t, "blocked")
			}
			continue
		}
		bit := uint64(1) << op.Loc
		private, readShared := true, op.Kind == prog.OpRead
		blocker := -1
		for u := range ops {
			if u == t {
				continue
			}
			pc := cur.Threads[u].PC
			if r.acc[u][pc]&bit != 0 {
				private = false
			}
			if r.wr[u][pc]&bit != 0 {
				readShared = false
			}
			if !private && !readShared {
				blocker = u
				break
			}
		}
		if !private && !readShared {
			if note != nil {
				verb := "accessed"
				if op.Kind == prog.OpRead {
					verb = "written"
				}
				note(t, fmt.Sprintf("pending %s on %s: %s may still be %s by %s",
					opKindName(op.Kind), r.prog.LocName(op.Loc), r.prog.LocName(op.Loc),
					verb, r.prog.Threads[blocker].Name))
			}
			continue
		}
		// Trial step: an ample transition must not mask an assertion
		// failure (choose t so the real expansion surfaces it), and must
		// strictly advance t's pc — then no cycle consists of ample steps
		// only (the pc sum strictly increases along them), so every cycle
		// contains a fully expanded state (C3).
		if afail := r.p.Threads[t].ApplyInto(cur.Threads[t], labs[t], &nxt.Threads[t]); afail != nil {
			if note != nil {
				note(t, "trial step fails an assertion; expanded alone to surface it")
			}
			return t, false
		}
		if nxt.Threads[t].PC <= cur.Threads[t].PC {
			if note != nil {
				note(t, fmt.Sprintf("pending %s on %s is invisible but does not advance the pc (possible ample-only cycle)",
					opKindName(op.Kind), r.prog.LocName(op.Loc)))
			}
			continue
		}
		if note != nil {
			how := "no other thread can still access it"
			if !private {
				how = "a read, and no other thread can still write it"
			}
			note(t, fmt.Sprintf("AMPLE: pending %s on %s — %s",
				opKindName(op.Kind), r.prog.LocName(op.Loc), how))
		}
		return t, true
	}
	return -1, false
}

// nonWriting reports that an operation kind never writes its location (so
// two such operations on the same location commute).
func nonWriting(k prog.OpKind) bool { return k == prog.OpRead || k == prog.OpWait }

// indepOps reports that the two pending operations (of distinct threads)
// commute: different locations, or both non-writing on the same one.
func indepOps(a, b prog.MemOp) bool {
	return a.Loc != b.Loc || (nonWriting(a.Kind) && nonWriting(b.Kind))
}

// childSleep computes the sleep mask an edge by thread t hands to its
// target: every other thread u in base (the parent's sleep set plus the
// threads already expanded at the parent) whose pending operation is
// independent of t's stays redundant after t's step.
func childSleep(ops []prog.MemOp, t int, base uint64) uint64 {
	var out uint64
	base &^= uint64(1) << t
	for u := range ops {
		if base>>u&1 != 0 && ops[u].Kind != prog.OpNone && indepOps(ops[u], ops[t]) {
			out |= uint64(1) << u
		}
	}
	return out
}

// canonPerm fills perm with the symmetry permutation canonicalizing the
// successor state (ps, ms): within every class, member slots are sorted by
// the threads' full per-thread content — the program block first, then the
// thread-indexed monitor words (ms is nil in the SC-only explorer, which
// has no monitor). Reports whether the result is the identity.
func (r *reducer) canonPerm(ps prog.State, ms *scm.State, perm []uint8) bool {
	return explore.SortPerm(r.classes, perm, func(a, b int) int { return r.cmpThreads(ps, ms, a, b) })
}

func (r *reducer) cmpThreads(ps prog.State, ms *scm.State, a, b int) int {
	if c := r.p.CmpThreads(ps, a, b); c != 0 {
		return c
	}
	if ms != nil {
		return r.mon.CmpThreads(ms, a, b)
	}
	return 0
}

// permuteMask carries a thread mask into canonical coordinates: canonical
// slot i corresponds to pre-canonicalization thread perm[i].
func permuteMask(m uint64, perm []uint8) uint64 {
	var out uint64
	for i, p := range perm {
		out |= (m >> p & 1) << i
	}
	return out
}

// concretizeViolation returns viol with its thread ids mapped through
// sigma (a copy; the recorded violation is left canonical).
func concretizeViolation(viol *scm.Violation, sigma []uint8) *scm.Violation {
	nv := *viol
	nv.Tid = lang.Tid(sigma[nv.Tid])
	if nv.Kind == scm.NARace {
		nv.Tid2 = lang.Tid(sigma[nv.Tid2])
	}
	return &nv
}

func opKindName(k prog.OpKind) string {
	switch k {
	case prog.OpWrite:
		return "write"
	case prog.OpRead:
		return "read"
	case prog.OpFADD:
		return "fadd"
	case prog.OpCAS:
		return "cas"
	case prog.OpWait:
		return "await"
	case prog.OpBCAS:
		return "bcas"
	case prog.OpXCHG:
		return "xchg"
	}
	return "none"
}

func locSetStr(program *lang.Program, m uint64) string {
	if m == 0 {
		return "-"
	}
	var parts []string
	for m != 0 {
		x := bits.TrailingZeros64(m)
		m &^= uint64(1) << x
		parts = append(parts, program.LocName(lang.Loc(x)))
	}
	return strings.Join(parts, ",")
}

// ExplainReduce renders a human-readable account of what the partial-order
// reduction layer (Options.Reduce) does on a program: the static
// independence relation derived from the conflict-graph access summaries,
// the thread-symmetry classes, and — at the initial state, as a sample —
// why each thread's pending operation was or was not taken as the ample
// representative.
func ExplainReduce(program *lang.Program) string {
	var b strings.Builder
	if err := program.Validate(); err != nil {
		fmt.Fprintf(&b, "%s: invalid program: %v\n", program.Name, err)
		return b.String()
	}
	p := prog.New(program)
	r := newReducer(program, p, nil)
	fmt.Fprintf(&b, "%s: partial-order reduction plan\n", program.Name)
	b.WriteString("  forward access summaries (from entry):\n")
	for t := range program.Threads {
		fmt.Fprintf(&b, "    %-12s may access {%s}, may write {%s}\n",
			program.Threads[t].Name, locSetStr(program, r.acc[t][0]), locSetStr(program, r.wr[t][0]))
	}
	b.WriteString("  static (in)dependence between thread pairs:\n")
	for a := range program.Threads {
		for c := a + 1; c < len(program.Threads); c++ {
			dep := r.acc[a][0]&r.wr[c][0] | r.wr[a][0]&r.acc[c][0]
			pair := fmt.Sprintf("%s / %s", program.Threads[a].Name, program.Threads[c].Name)
			if dep == 0 {
				fmt.Fprintf(&b, "    %-20s independent (no location one writes and the other touches)\n", pair+":")
			} else {
				fmt.Fprintf(&b, "    %-20s conflict on {%s}\n", pair+":", locSetStr(program, dep))
			}
		}
	}
	switch {
	case r.symm():
		for _, cls := range r.classes {
			names := make([]string, len(cls))
			for i, t := range cls {
				names[i] = program.Threads[t].Name
			}
			fmt.Fprintf(&b, "  thread symmetry: {%s} are interchangeable\n", strings.Join(names, ", "))
		}
	case r.nT > maxSymThreads:
		fmt.Fprintf(&b, "  thread symmetry: disabled (%d threads > %d)\n", r.nT, maxSymThreads)
	default:
		b.WriteString("  thread symmetry: no two threads are interchangeable\n")
	}
	ps0, fail := p.InitState()
	if fail != nil {
		b.WriteString("  initial state fails an assertion; nothing to explore\n")
		return b.String()
	}
	nxt := prog.State{Threads: make([]prog.ThreadState, len(p.Threads))}
	for i := range p.Threads {
		nxt.Threads[i].Regs = make([]lang.Val, program.Threads[i].NumRegs)
	}
	ops := p.Ops(ps0)
	labs, en := make([]lang.Label, len(ops)), make([]bool, len(ops))
	scLabels(ops, memsc.New(program.NumLocs()), program.ValCount, labs, en)
	b.WriteString("  ample-set decision at the initial state (sample):\n")
	chosen, _ := r.ampleEx(ps0, nxt, ops, labs, en, func(t int, msg string) {
		if t < 0 {
			fmt.Fprintf(&b, "    %s\n", msg)
			return
		}
		fmt.Fprintf(&b, "    %-12s %s\n", program.Threads[t].Name+":", msg)
	})
	if chosen >= 0 {
		fmt.Fprintf(&b, "    => ample set {%s}: one edge stands in for the full expansion\n",
			program.Threads[chosen].Name)
	} else {
		b.WriteString("    => full expansion\n")
	}
	return b.String()
}
