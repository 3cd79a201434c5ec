// Package prog gives operational semantics to programs: the labeled
// transition systems induced by sequential programs (Figure 2 of the paper)
// and their concurrent interleaving (§2.2), together with the machinery the
// verifier needs on top — ε-closure to the next memory operation, the set of
// labels a thread enables at a state, and the critical-value analysis of
// §5.1.
package prog

import (
	"fmt"
	"slices"

	"repro/internal/lang"
)

// ThreadState is a state ⟨pc, Φ⟩ of a sequential program's LTS: a program
// counter and a register store. The zero pc with an all-zero store is the
// initial state.
type ThreadState struct {
	PC   int
	Regs []lang.Val
}

// Clone returns a deep copy.
func (ts ThreadState) Clone() ThreadState {
	regs := make([]lang.Val, len(ts.Regs))
	copy(regs, ts.Regs)
	return ThreadState{PC: ts.PC, Regs: regs}
}

// OpKind classifies the memory operation a thread is poised to perform
// after ε-closure.
type OpKind uint8

// Operation kinds. OpNone means the thread has terminated (pc left the
// program) or diverged in a local ε-loop; in either case it will never
// perform another memory access.
const (
	OpNone OpKind = iota
	OpWrite
	OpRead
	OpFADD
	OpCAS
	OpWait
	OpBCAS
	OpXCHG
)

// MemOp is a thread's next memory operation with all expression operands
// evaluated under the current register store. It fully determines the set
// of labels the thread enables (Definition 2.1 / Figure 2):
//
//	OpWrite: { W(x, WVal) }
//	OpRead:  { R(x, v) | v ∈ Val }
//	OpFADD:  { RMW(x, v, v + Add) | v ∈ Val }
//	OpCAS:   { RMW(x, Exp, New) } ∪ { R(x, v) | v ≠ Exp }
//	OpWait:  { R(x, WVal) }
//	OpBCAS:  { RMW(x, Exp, New) }
//	OpXCHG:  { RMW(x, v, New) | v ∈ Val }
type MemOp struct {
	Kind OpKind
	Loc  lang.Loc
	NA   bool     // the location is non-atomic (§6)
	WVal lang.Val // OpWrite: value written; OpWait: value awaited
	Add  lang.Val // OpFADD: increment
	Exp  lang.Val // OpCAS/OpBCAS: expected value
	New  lang.Val // OpCAS/OpBCAS: replacement value
	Reg  lang.Reg // OpRead/OpFADD/OpCAS: destination register
	// PC is the program counter of the instruction (post ε-closure),
	// for diagnostics and fence placement.
	PC int
}

// Thread is a handle on one thread of a program, caching what the stepper
// needs.
type Thread struct {
	prog *lang.Program
	seq  *lang.SeqProg
	tid  lang.Tid
	live []uint64 // per pc: registers live on entry (see liveness.go)
	off  int      // offset of the thread's block in EncodeState's encoding
}

// P is an executable view of a concurrent program.
type P struct {
	Prog    *lang.Program
	Threads []Thread
	size    int // length of EncodeState's encoding
}

// New prepares a program for execution. The program must have been
// validated.
func New(prog *lang.Program) *P {
	p := &P{Prog: prog}
	off := 0
	for i := range prog.Threads {
		p.Threads = append(p.Threads, Thread{
			prog: prog,
			seq:  &prog.Threads[i],
			tid:  lang.Tid(i),
			live: liveSets(&prog.Threads[i]),
			off:  off,
		})
		off += 2 + prog.Threads[i].NumRegs
	}
	p.size = off
	return p
}

// InitStateRaw returns the initial concurrent program state (all pcs 0,
// all registers 0) without ε-closure.
func (p *P) InitStateRaw() State {
	st := State{Threads: make([]ThreadState, len(p.Threads))}
	for i := range p.Threads {
		st.Threads[i] = ThreadState{PC: 0, Regs: make([]lang.Val, p.Threads[i].seq.NumRegs)}
	}
	return st
}

// InitState returns the initial concurrent program state (all pcs 0, all
// registers 0), with ε-closure already applied to every thread.
//
// The returned error kinds mirror Step: an assertion that fails before any
// memory access is reported immediately.
func (p *P) InitState() (State, *AssertFailure) {
	st := State{Threads: make([]ThreadState, len(p.Threads))}
	for i := range p.Threads {
		ts := ThreadState{PC: 0, Regs: make([]lang.Val, p.Threads[i].seq.NumRegs)}
		closed, fail := p.Threads[i].EpsClose(ts)
		if fail != nil {
			return st, fail
		}
		st.Threads[i] = closed
	}
	return st, nil
}

// InitStateInto overwrites s, which must have the shape of InitStateRaw's
// result, with the ε-closed initial state, reading the instructions as
// they are now: a caller that rewrites ε-instructions in place between
// runs gets the closure of the current program. It reports a failing
// assertion as InitState does; s is then not a state to step from.
func (p *P) InitStateInto(s State) *AssertFailure {
	for i := range p.Threads {
		ts := &s.Threads[i]
		ts.PC = 0
		clear(ts.Regs)
		if fail := p.Threads[i].epsCloseInPlace(ts); fail != nil {
			return fail
		}
	}
	return nil
}

// State is a state of the concurrent program: one ThreadState per thread.
// The verifier maintains the invariant that every thread is at a memory
// instruction or terminated (ε-closure applied).
type State struct {
	Threads []ThreadState
}

// Clone returns a deep copy.
func (s State) Clone() State {
	ts := make([]ThreadState, len(s.Threads))
	for i := range s.Threads {
		ts[i] = s.Threads[i].Clone()
	}
	return State{Threads: ts}
}

// CopyFrom overwrites s with o, reusing s's register storage when the
// shapes match. This is the pooled-scratch counterpart of Clone: explorers
// that recycle frontier states copy into a pooled State instead of
// allocating a fresh one per successor.
func (s *State) CopyFrom(o State) {
	if len(s.Threads) != len(o.Threads) {
		s.Threads = make([]ThreadState, len(o.Threads))
	}
	for i := range o.Threads {
		ts := &s.Threads[i]
		ts.PC = o.Threads[i].PC
		if len(ts.Regs) != len(o.Threads[i].Regs) {
			ts.Regs = make([]lang.Val, len(o.Threads[i].Regs))
		}
		copy(ts.Regs, o.Threads[i].Regs)
	}
}

// AssertFailure reports a violated assert instruction.
type AssertFailure struct {
	Tid  lang.Tid
	PC   int
	Line int
}

func (a *AssertFailure) Error() string {
	return fmt.Sprintf("assertion failed in thread %d at pc %d (line %d)", a.Tid, a.PC, a.Line)
}

// epsBudget bounds the fast path of ε-closure before cycle detection kicks
// in; most closures take only a handful of steps.
const epsBudget = 256

// EpsClose runs the thread's deterministic ε-instructions (assignments,
// branches, asserts) until it reaches a memory instruction or terminates.
// This implements the ε-closure built into the transition relation of
// Definition 2.4. A local ε-cycle (a thread spinning without memory access)
// is treated as silent divergence: the thread is parked at a pseudo-
// terminated state, since it can never influence or observe memory again.
//
// A failed assert is reported; the thread state returned alongside a
// failure is the state at the failing assert.
func (t *Thread) EpsClose(ts ThreadState) (ThreadState, *AssertFailure) {
	vc := t.prog.ValCount
	steps := 0
	var seen map[uint64]struct{}
	for {
		if ts.PC < 0 || ts.PC >= len(t.seq.Insts) {
			ts.PC = len(t.seq.Insts) // canonical terminated pc
			return ts, nil
		}
		in := &t.seq.Insts[ts.PC]
		if in.IsMem() {
			return ts, nil
		}
		switch in.Kind {
		case lang.IAssign:
			if sameVal := in.E.Eval(ts.Regs, vc); ts.Regs[in.Reg] != sameVal {
				// Copy-on-write: only clone the register file when it
				// actually changes, keeping closure cheap.
				regs := make([]lang.Val, len(ts.Regs))
				copy(regs, ts.Regs)
				regs[in.Reg] = sameVal
				ts.Regs = regs
			}
			ts.PC++
		case lang.IGoto:
			if in.E.Eval(ts.Regs, vc) != 0 {
				ts.PC = in.Target
			} else {
				ts.PC++
			}
		case lang.IAssert:
			if in.E.Eval(ts.Regs, vc) == 0 {
				return ts, &AssertFailure{Tid: t.tid, PC: ts.PC, Line: in.Line}
			}
			ts.PC++
		}
		steps++
		if steps >= epsBudget {
			if seen == nil {
				seen = make(map[uint64]struct{})
			}
			key := t.hashLocal(ts)
			if _, dup := seen[key]; dup {
				// Local divergence: park the thread.
				ts.PC = len(t.seq.Insts)
				return ts, nil
			}
			seen[key] = struct{}{}
		}
	}
}

// epsCloseInPlace is EpsClose mutating ts directly: the caller owns
// ts.Regs as scratch, so no copy-on-write is needed. It is the closure
// step of the allocation-free ApplyInto kernel; the cycle-detection `seen`
// map is only materialized past epsBudget steps (pathological spins).
func (t *Thread) epsCloseInPlace(ts *ThreadState) *AssertFailure {
	vc := t.prog.ValCount
	steps := 0
	var seen map[uint64]struct{}
	for {
		if ts.PC < 0 || ts.PC >= len(t.seq.Insts) {
			ts.PC = len(t.seq.Insts) // canonical terminated pc
			return nil
		}
		in := &t.seq.Insts[ts.PC]
		if in.IsMem() {
			return nil
		}
		switch in.Kind {
		case lang.IAssign:
			ts.Regs[in.Reg] = in.E.Eval(ts.Regs, vc)
			ts.PC++
		case lang.IGoto:
			if in.E.Eval(ts.Regs, vc) != 0 {
				ts.PC = in.Target
			} else {
				ts.PC++
			}
		case lang.IAssert:
			if in.E.Eval(ts.Regs, vc) == 0 {
				return &AssertFailure{Tid: t.tid, PC: ts.PC, Line: in.Line}
			}
			ts.PC++
		}
		steps++
		if steps >= epsBudget {
			if seen == nil {
				seen = make(map[uint64]struct{})
			}
			key := t.hashLocal(*ts)
			if _, dup := seen[key]; dup {
				ts.PC = len(t.seq.Insts)
				return nil
			}
			seen[key] = struct{}{}
		}
	}
}

// hashLocal hashes (pc, regs) for ε-cycle detection (FNV-1a).
func (t *Thread) hashLocal(ts ThreadState) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) { h ^= uint64(b); h *= 1099511628211 }
	mix(byte(ts.PC))
	mix(byte(ts.PC >> 8))
	for _, v := range ts.Regs {
		mix(byte(v))
	}
	return h
}

// Terminated reports whether the thread has no further transitions at ts.
func (t *Thread) Terminated(ts ThreadState) bool {
	return ts.PC >= len(t.seq.Insts) || ts.PC < 0
}

// AtEps reports whether the thread's next instruction is an ε-instruction
// (assignment, branch, assert).
func (t *Thread) AtEps(ts ThreadState) bool {
	return !t.Terminated(ts) && !t.seq.Insts[ts.PC].IsMem()
}

// StepEps performs exactly one ε-instruction (the thread must be at one,
// per AtEps). It returns the successor state, or an assertion failure. The
// ε-granular state-robustness explorers use this to enumerate every
// partially-closed state of Definition 2.4 — e.g. the §2.3 barrier
// counterexample, where both threads sit on their loop branches holding
// stale zeroes.
func (t *Thread) StepEps(ts ThreadState) (ThreadState, *AssertFailure) {
	next := ThreadState{Regs: make([]lang.Val, len(ts.Regs))}
	if fail := t.StepEpsInto(ts, &next); fail != nil {
		return ts, fail
	}
	return next, nil
}

// StepEpsInto is StepEps writing the successor into dst, whose Regs must
// already have the thread's register count and must not alias ts.Regs.
// Pooled-scratch explorers use it to step without allocating.
func (t *Thread) StepEpsInto(ts ThreadState, dst *ThreadState) *AssertFailure {
	vc := t.prog.ValCount
	in := &t.seq.Insts[ts.PC]
	dst.PC = ts.PC
	copy(dst.Regs, ts.Regs)
	switch in.Kind {
	case lang.IAssign:
		dst.Regs[in.Reg] = in.E.Eval(ts.Regs, vc)
		dst.PC++
	case lang.IGoto:
		if in.E.Eval(ts.Regs, vc) != 0 {
			dst.PC = in.Target
		} else {
			dst.PC++
		}
	case lang.IAssert:
		if in.E.Eval(ts.Regs, vc) == 0 {
			return &AssertFailure{Tid: t.tid, PC: ts.PC, Line: in.Line}
		}
		dst.PC++
	default:
		panic("prog: StepEps on memory instruction")
	}
	return nil
}

// Op returns the thread's pending memory operation at ts (which must be
// ε-closed), or a MemOp with Kind OpNone if the thread has terminated.
func (t *Thread) Op(ts ThreadState) MemOp {
	if t.Terminated(ts) {
		return MemOp{Kind: OpNone, PC: ts.PC}
	}
	in := &t.seq.Insts[ts.PC]
	vc := t.prog.ValCount
	loc := in.Mem.Resolve(ts.Regs, vc)
	op := MemOp{Loc: loc, NA: t.prog.Locs[loc].NA, PC: ts.PC}
	switch in.Kind {
	case lang.IWrite:
		op.Kind = OpWrite
		op.WVal = in.E.Eval(ts.Regs, vc)
	case lang.IRead:
		op.Kind = OpRead
		op.Reg = in.Reg
	case lang.IFADD:
		op.Kind = OpFADD
		op.Add = in.E.Eval(ts.Regs, vc)
		op.Reg = in.Reg
	case lang.IXCHG:
		op.Kind = OpXCHG
		op.New = in.E.Eval(ts.Regs, vc)
		op.Reg = in.Reg
	case lang.ICAS:
		op.Kind = OpCAS
		op.Exp = in.ER.Eval(ts.Regs, vc)
		op.New = in.EW.Eval(ts.Regs, vc)
		op.Reg = in.Reg
	case lang.IWait:
		op.Kind = OpWait
		op.WVal = in.E.Eval(ts.Regs, vc)
	case lang.IBCAS:
		op.Kind = OpBCAS
		op.Exp = in.ER.Eval(ts.Regs, vc)
		op.New = in.EW.Eval(ts.Regs, vc)
	default:
		panic("prog: ε-instruction after closure")
	}
	return op
}

// Enables reports whether the thread's operation op enables the given
// label, per the transition rules of Figure 2.
func Enables(op MemOp, l lang.Label) bool {
	if op.Kind == OpNone || op.Loc != l.Loc {
		return false
	}
	switch op.Kind {
	case OpWrite:
		return l.Typ == lang.LWrite && l.VW == op.WVal
	case OpRead:
		return l.Typ == lang.LRead
	case OpFADD:
		return l.Typ == lang.LRMW // with VW = VR + Add, checked by caller if needed
	case OpCAS:
		if l.Typ == lang.LRMW {
			return l.VR == op.Exp && l.VW == op.New
		}
		return l.Typ == lang.LRead && l.VR != op.Exp
	case OpWait:
		return l.Typ == lang.LRead && l.VR == op.WVal
	case OpBCAS:
		return l.Typ == lang.LRMW && l.VR == op.Exp && l.VW == op.New
	case OpXCHG:
		return l.Typ == lang.LRMW && l.VW == op.New
	}
	return false
}

// SCLabel computes the unique label the operation yields under sequential
// consistency when the current value of the location is cur, or ok=false if
// the thread is blocked (wait/BCAS with a non-matching value) or terminated.
//
// Under SC every operation reads the latest value, so the label is
// deterministic; this is what makes the reduction of §5 explore exactly the
// SC state space.
func SCLabel(op MemOp, cur lang.Val, valCount int) (lang.Label, bool) {
	switch op.Kind {
	case OpWrite:
		return lang.WriteLab(op.Loc, op.WVal), true
	case OpRead:
		return lang.ReadLab(op.Loc, cur), true
	case OpFADD:
		return lang.RMWLab(op.Loc, cur, lang.Val((int(cur)+int(op.Add))%valCount)), true
	case OpCAS:
		if cur == op.Exp {
			return lang.RMWLab(op.Loc, op.Exp, op.New), true
		}
		return lang.ReadLab(op.Loc, cur), true
	case OpWait:
		if cur == op.WVal {
			return lang.ReadLab(op.Loc, cur), true
		}
		return lang.Label{}, false
	case OpBCAS:
		if cur == op.Exp {
			return lang.RMWLab(op.Loc, op.Exp, op.New), true
		}
		return lang.Label{}, false
	case OpXCHG:
		return lang.RMWLab(op.Loc, cur, op.New), true
	}
	return lang.Label{}, false
}

// ApplyRaw performs the state update of the thread's pending instruction
// for the given label (which must be enabled by the thread's operation)
// WITHOUT the trailing ε-closure. The returned state is the finest
// observation point of Definition 2.4's transition (zero trailing
// ε-steps); state-robustness comparisons must use it, since the paper's
// reachable states include every partial ε-closure (e.g. the barrier
// counterexample of §2.3 is a state whose pc sits on the branch after the
// stale read).
func (t *Thread) ApplyRaw(ts ThreadState, l lang.Label) ThreadState {
	next := ThreadState{Regs: make([]lang.Val, len(ts.Regs))}
	t.ApplyRawInto(ts, l, &next)
	return next
}

// ApplyRawInto is ApplyRaw writing the successor into dst, whose Regs must
// already have the thread's register count and must not alias ts.Regs.
func (t *Thread) ApplyRawInto(ts ThreadState, l lang.Label, dst *ThreadState) {
	in := &t.seq.Insts[ts.PC]
	dst.PC = ts.PC + 1
	copy(dst.Regs, ts.Regs)
	switch in.Kind {
	case lang.IRead, lang.IFADD, lang.IXCHG, lang.ICAS:
		dst.Regs[in.Reg] = l.VR
	case lang.IWrite, lang.IWait, lang.IBCAS:
		// no register update
	default:
		panic("prog: Apply on ε-instruction")
	}
}

// Apply is ApplyRaw followed by ε-closure: the transition granularity at
// which the verifier explores (fewer interleavings, same verdicts — the
// robustness checks depend only on ε-closed states).
func (t *Thread) Apply(ts ThreadState, l lang.Label) (ThreadState, *AssertFailure) {
	return t.EpsClose(t.ApplyRaw(ts, l))
}

// ApplyInto is Apply writing the successor into per-worker scratch dst
// (same Regs contract as ApplyRawInto): the clone-free step kernel of the
// exploration hot loop. The caller typically swaps dst into its current
// State for encoding and swaps the original back afterwards, so the whole
// expand-encode-intern cycle touches no heap.
func (t *Thread) ApplyInto(ts ThreadState, l lang.Label, dst *ThreadState) *AssertFailure {
	t.ApplyRawInto(ts, l, dst)
	return t.epsCloseInPlace(dst)
}

// Ops returns the pending memory operation of every thread at state s.
func (p *P) Ops(s State) []MemOp {
	ops := make([]MemOp, len(p.Threads))
	p.OpsInto(ops, s)
	return ops
}

// OpsInto fills dst (length = number of threads) with the pending memory
// operation of every thread at state s — Ops into caller scratch.
func (p *P) OpsInto(dst []MemOp, s State) {
	for i := range p.Threads {
		dst[i] = p.Threads[i].Op(s.Threads[i])
	}
}

// AllTerminated reports whether every thread of s has terminated.
func (p *P) AllTerminated(s State) bool {
	for i := range p.Threads {
		if !p.Threads[i].Terminated(s.Threads[i]) {
			return false
		}
	}
	return true
}

// EncodeState appends a canonical byte encoding of s to dst, for
// visited-set hashing: per thread, the pc (2 bytes) followed by the
// registers, with registers that are dead at the pc canonicalized to zero
// (bisimilar states then encode identically; see liveness.go).
func (p *P) EncodeState(dst []byte, s State) []byte {
	n := len(dst)
	dst = slices.Grow(dst, p.size)[:n+p.size]
	for i := range s.Threads {
		p.EncodeThreadAt(dst[n:], i, s.Threads[i])
	}
	return dst
}

// EncodeThreadAt overwrites thread i's block of enc, an EncodeState
// encoding, with the encoding of ts: the encoding of the state that has
// ts for thread i and enc's threads elsewhere. Each thread's block has a
// fixed offset and length, so a successor's encoding is its parent's with
// the stepped thread's block rewritten.
func (p *P) EncodeThreadAt(enc []byte, i int, ts ThreadState) {
	p.Threads[i].encode(enc[p.Threads[i].off:], ts)
}

// encode writes the block of ts, a state of t, to the front of b: the pc
// (2 bytes), then the registers, those dead at the pc as zero.
func (t *Thread) encode(b []byte, ts ThreadState) {
	b = b[:2+len(ts.Regs)]
	b[0], b[1] = byte(ts.PC), byte(ts.PC>>8)
	live := t.live[ts.PC]
	for r, v := range ts.Regs {
		if live&(1<<r) == 0 {
			v = 0
		}
		b[2+r] = byte(v)
	}
}

// EncodeStateRaw is EncodeState without the dead-register
// canonicalization. State-robustness comparisons (Definition 2.6) must use
// raw states: the registers that witness a weak behaviour (e.g. the two
// zero reads of SB) are typically dead by the time the state is compared,
// and zeroing them would erase exactly the distinction being checked.
func (p *P) EncodeStateRaw(dst []byte, s State) []byte {
	for i := range s.Threads {
		ts := &s.Threads[i]
		dst = append(dst, byte(ts.PC), byte(ts.PC>>8))
		for _, v := range ts.Regs {
			dst = append(dst, byte(v))
		}
	}
	return dst
}

// StateKeyRaw returns the raw encoding of s as a string key.
func (p *P) StateKeyRaw(s State) string {
	return string(p.EncodeStateRaw(nil, s))
}

// DecodeState reconstructs a program state from an EncodeState buffer into
// the (pre-allocated) state s, returning the number of bytes consumed.
// Registers that were dead at the encoded pc come back as zero, which is
// bisimilar to the original state.
func (p *P) DecodeState(data []byte, s State) int {
	pos := 0
	for i := range s.Threads {
		ts := &s.Threads[i]
		ts.PC = int(data[pos]) | int(data[pos+1])<<8
		pos += 2
		for r := range ts.Regs {
			ts.Regs[r] = lang.Val(data[pos])
			pos++
		}
	}
	return pos
}

// StateKey returns the canonical encoding of s as a string key.
func (p *P) StateKey(s State) string {
	return string(p.EncodeState(nil, s))
}
