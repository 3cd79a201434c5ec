// Package model abstracts the repository's operational memory subsystems
// behind one MemoryModel interface and grows the cross-model verification
// matrix on top of it: one program in, a verdict per model out.
//
// Before this package, the four machines — SC (memsc), RA and SRA (memra),
// and TSO (memtso) — were each wired ad hoc into their own explorer. The
// interface factors the wiring into its four roles:
//
//   - init: the initial memory state for a program shape (Init);
//   - step: the successors of a memory state under one program operation,
//     plus memory-internal transitions such as TSO flushes (Steps,
//     Internal);
//   - canonicalize: the state normalization that keeps the product finite
//     and collapses equivalent states (Canon — timestamp renumbering for
//     RA/SRA, a no-op for SC and TSO), and the per-thread view under which
//     CheckState folds thread symmetry (Symmetry — SC and TSO; RA and SRA
//     are not folded);
//   - robustness-monitor: how non-SC behavior is detected on top of the
//     reachable states. For the state models the monitor is generic — the
//     program-state projection of every reached product state is compared
//     against the SC-reachable set (Definition 2.6, CheckState) — while
//     the execution-graph modes use the internal/scm monitor through
//     internal/core and are dispatched by the registry (registry.go), not
//     through this interface.
//
// CheckState (check.go) is the one level-synchronous product explorer
// behind the interface: a parallel BFS on the sharded arena store, one
// model instance (Fork) per worker, with every state decoded from its
// key. For a machine with quiescent states (Quiescent: SC and TSO) it
// explores the SC backbone inside the product, on raw memory bytes,
// rather than calling staterobust.ReachableSC first. It answers both TSO
// modes: state-tso over the full machine (NewTSO), and tso, the
// polynomial instrumented checker (tsoattack.go), over the lazy
// single-delayer machine (NewTSOLazy). The RA and SRA adapters wrap the
// one step enumeration of memra.Machine, which staterobust's sequential
// RA/SRA oracle (the production path of state-ra and state-sra) drives
// too; they are pinned equal to it by parity tests.
package model

import (
	"repro/internal/lang"
	"repro/internal/memra"
	"repro/internal/memsc"
	"repro/internal/memtso"
	"repro/internal/prog"
	"repro/internal/staterobust"
)

// State is one memory-subsystem state paired against a program state in a
// product exploration.
type State interface {
	// Clone returns a deep copy.
	Clone() State
	// Encode appends a canonical byte encoding to dst. Two states with
	// equal encodings are interchangeable for the exploration.
	Encode(dst []byte) []byte
}

// Succ is one successor produced by a model: the new memory state and the
// label the program observes. Internal transitions (Internal) carry no
// label. The state may be scratch of the model instance, valid until its
// next Steps or Internal call; Clone it to keep it.
type Succ struct {
	M   State
	Lab lang.Label
}

// MemoryModel is one operational memory subsystem. Implementations keep
// per-instance scratch buffers, so an instance must not be shared between
// goroutines — Fork gives each worker its own; Canon may mutate its
// argument in place.
type MemoryModel interface {
	// Name returns the model's short name ("sc", "ra", "sra", "tso").
	Name() string
	// Init returns the initial memory state.
	Init() State
	// Decode returns the state that data, one Encode output, describes.
	// The result is scratch of the instance, valid until its next Decode.
	Decode(data []byte) State
	// Steps appends every successor of m under thread tid executing op:
	// for each way the memory can serve the operation, the mutated state
	// and the observed label. An operation the memory cannot serve (a
	// blocked wait, a full store buffer, a failed BCAS) contributes no
	// successor.
	Steps(dst []Succ, m State, tid lang.Tid, op prog.MemOp) []Succ
	// Internal appends the memory-internal transitions of thread tid
	// enabled in m (TSO buffer flushes; empty for the other models).
	Internal(dst []Succ, m State, tid lang.Tid) []Succ
	// Canon canonicalizes m in place (timestamp renumbering for RA/SRA;
	// a no-op otherwise). Called on every successor before interning.
	Canon(m State)
	// BoundHit reports whether a structural bound of the machine (the TSO
	// store-buffer capacity) ever inhibited a transition; if false, the
	// bound provably did not limit the exploration.
	BoundHit() bool
	// Fork returns a fresh instance of the same machine, with scratch of
	// its own and BoundHit false, for another concurrent worker.
	Fork() MemoryModel
	// Quiescent describes the machine's quiescent states, or returns nil
	// when it has none (RA, SRA): CheckState then takes the SC-reachable
	// set from staterobust.ReachableSC instead of exploring it itself.
	Quiescent() *Quiescence
	// Symmetry returns the machine's per-thread view for folding thread
	// symmetry, or nil when the machine does not treat the members of
	// every class (prog.SymClasses) interchangeably — when permuting a
	// class's threads together with their per-thread memory content
	// does not map runs to runs. CheckState folds only when it is non-nil.
	Symmetry(classes [][]int) ThreadPerm
}

// Quiescence describes a machine's quiescent states, those with nothing
// in flight: every state of SC, every TSO state with all store buffers
// empty. CheckState explores them on raw memory bytes, as
// staterobust.ReachableSC explores SC memory, so they must behave as SC
// memory does:
//   - the initial state is quiescent, and a quiescent state encodes as
//     the SC memory, one byte per location, followed by bytes that hold
//     nothing per thread;
//   - a quiescent state has no memory-internal steps, and its successor
//     under an operation, if any, is SC's, differing from it in the SC
//     memory bytes only — but for a store by a thread t with Delays[t];
//   - such a store enters t's buffer instead, and t's one memory-internal
//     step from there, its flush, reaches SC's successor.
type Quiescence struct {
	Delays []bool
}

// ThreadPerm is a machine's per-thread view for thread-symmetry folding.
// It keeps no scratch, so all workers may share one.
type ThreadPerm interface {
	// CmpThreads totally orders threads a and b of one class by their
	// per-thread content in m (a TSO store buffer; nothing under SC). A
	// zero result means swapping them changes no byte of m's encoding.
	CmpThreads(m State, a, b int) int
	// EncodePerm is m.Encode with the per-thread content permuted: slot i
	// of the encoding carries thread perm[i]'s.
	EncodePerm(dst []byte, m State, perm []uint8) []byte
}

// ---------------------------------------------------------------- SC ----

type scState struct{ m memsc.Memory }

func (s *scState) Clone() State           { return &scState{s.m.Clone()} }
func (s *scState) Encode(d []byte) []byte { return s.m.Encode(d) }

type scModel struct {
	numLocs  int
	valCount int
	quiet    *Quiescence
	cur      *scState
}

// NewSC returns the SC memory (memsc) as a MemoryModel.
func NewSC(program *lang.Program) MemoryModel {
	return &scModel{numLocs: program.NumLocs(), valCount: program.ValCount,
		quiet: &Quiescence{Delays: make([]bool, program.NumThreads())}}
}

func (mm *scModel) Name() string { return "sc" }
func (mm *scModel) Init() State  { return &scState{memsc.New(mm.numLocs)} }

func (mm *scModel) Decode(d []byte) State {
	if mm.cur == nil {
		mm.cur = &scState{memsc.New(mm.numLocs)}
	}
	mm.cur.m.Decode(d)
	return mm.cur
}

func (mm *scModel) Steps(dst []Succ, ms State, tid lang.Tid, op prog.MemOp) []Succ {
	m := ms.(*scState).m
	label, enabled := prog.SCLabel(op, m[op.Loc], mm.valCount)
	if !enabled {
		return dst
	}
	nm := m.Clone()
	nm.Step(label)
	return append(dst, Succ{M: &scState{nm}, Lab: label})
}

func (mm *scModel) Internal(dst []Succ, ms State, tid lang.Tid) []Succ { return dst }
func (mm *scModel) Canon(State)                                        {}
func (mm *scModel) BoundHit() bool                                     { return false }
func (mm *scModel) Quiescent() *Quiescence                             { return mm.quiet }
func (mm *scModel) Fork() MemoryModel {
	return &scModel{numLocs: mm.numLocs, valCount: mm.valCount, quiet: mm.quiet}
}

// SC memory is indexed by location only: it holds no per-thread content.
func (mm *scModel) Symmetry([][]int) ThreadPerm { return scPerm{} }

type scPerm struct{}

func (scPerm) CmpThreads(State, int, int) int                   { return 0 }
func (scPerm) EncodePerm(dst []byte, m State, _ []uint8) []byte { return m.Encode(dst) }

// --------------------------------------------------------------- TSO ----

type tsoState struct{ m *memtso.State }

func (s *tsoState) Clone() State           { return &tsoState{s.m.Clone()} }
func (s *tsoState) Encode(d []byte) []byte { return s.m.Encode(d) }

type tsoModel struct {
	numLocs, numThreads int
	valCount            int
	bufCap              int
	// lazySet, when non-nil, selects the lazy single-delayer machine of
	// the instrumented checker (tsoattack.go): at most one store buffer
	// is ever non-empty. A thread whose buffer is already open keeps
	// buffering; a thread in the set may open a delay episode when every
	// buffer is empty; every other write commits straight to the store
	// (a write immediately followed by its flush — a genuine TSO run,
	// just with the flush fused into the store step). nil gives the full
	// x86-TSO machine: every thread buffers every write.
	lazySet  []bool
	quiet    *Quiescence
	boundHit bool
	// cur is Decode's scratch, next the one successor a Steps or
	// Internal call yields (the machine is deterministic per operation).
	cur, next *tsoState
}

// NewTSO returns the full x86-TSO machine (memtso) as a MemoryModel, the
// machine of mode state-tso. bufCap bounds each store buffer (0 = 8).
func NewTSO(program *lang.Program, bufCap int) MemoryModel {
	return newTSO(program, bufCap, nil)
}

// NewTSOLazy returns the lazy single-delayer TSO machine used by the
// instrumented checker: only threads in delayers may open a buffering
// episode, and only while every other buffer is empty. Its reachable
// product states are a subset of NewTSO's.
func NewTSOLazy(program *lang.Program, bufCap int, delayers []lang.Tid) MemoryModel {
	lazySet := make([]bool, program.NumThreads())
	for _, tid := range delayers {
		lazySet[tid] = true
	}
	return newTSO(program, bufCap, lazySet)
}

func newTSO(program *lang.Program, bufCap int, lazySet []bool) MemoryModel {
	if bufCap <= 0 {
		bufCap = 8
	}
	delays := lazySet
	if delays == nil {
		delays = make([]bool, program.NumThreads())
		for t := range delays {
			delays[t] = true
		}
	}
	return &tsoModel{
		numLocs:    program.NumLocs(),
		numThreads: program.NumThreads(),
		valCount:   program.ValCount,
		bufCap:     bufCap,
		lazySet:    lazySet,
		quiet:      &Quiescence{Delays: delays},
	}
}

func (mm *tsoModel) Name() string { return "tso" }
func (mm *tsoModel) Init() State  { return &tsoState{memtso.New(mm.numLocs, mm.numThreads)} }

func (mm *tsoModel) Decode(d []byte) State {
	if mm.cur == nil {
		mm.cur = &tsoState{memtso.New(mm.numLocs, mm.numThreads)}
	}
	mm.cur.m.Decode(d)
	return mm.cur
}

func (mm *tsoModel) Fork() MemoryModel {
	c := *mm
	c.boundHit, c.cur, c.next = false, nil, nil
	return &c
}

// succ returns the scratch successor, holding a copy of m.
func (mm *tsoModel) succ(m *memtso.State) *tsoState {
	if mm.next == nil {
		mm.next = &tsoState{memtso.New(mm.numLocs, mm.numThreads)}
	}
	mm.next.m.CopyFrom(m)
	return mm.next
}

// mayDelay reports whether tid's next write enters its buffer (versus
// writing through): always under the full machine; under the lazy
// machine, iff tid's episode is already open or tid may open one and no
// other buffer is live.
func (mm *tsoModel) mayDelay(m *memtso.State, tid lang.Tid) bool {
	if mm.lazySet == nil {
		return true
	}
	if m.CanFlush(tid) { // own episode open
		return true
	}
	if !mm.lazySet[tid] {
		return false
	}
	for t := range m.Bufs {
		if len(m.Bufs[t]) > 0 {
			return false
		}
	}
	return true
}

func (mm *tsoModel) Steps(dst []Succ, ms State, tid lang.Tid, op prog.MemOp) []Succ {
	m := ms.(*tsoState).m
	switch op.Kind {
	case prog.OpWrite:
		if mm.mayDelay(m, tid) {
			if !m.CanWrite(tid, mm.bufCap) {
				mm.boundHit = true
				return dst
			}
			nm := mm.succ(m)
			nm.m.Write(tid, op.Loc, op.WVal)
			return append(dst, Succ{M: nm, Lab: lang.WriteLab(op.Loc, op.WVal)})
		}
		// Write-through: commit to the store immediately. The thread's
		// buffer is empty, so this is write+flush fused; the buffered
		// variant of the same state is reachable anyway when the thread
		// may delay (buffer then flush), so the branch loses no states.
		nm := mm.succ(m)
		nm.m.Mem[op.Loc] = op.WVal
		return append(dst, Succ{M: nm, Lab: lang.WriteLab(op.Loc, op.WVal)})
	case prog.OpRead:
		return append(dst, Succ{M: mm.succ(m), Lab: lang.ReadLab(op.Loc, m.Lookup(tid, op.Loc))})
	case prog.OpWait:
		if m.Lookup(tid, op.Loc) != op.WVal {
			return dst
		}
		return append(dst, Succ{M: mm.succ(m), Lab: lang.ReadLab(op.Loc, op.WVal)})
	default:
		// Locked RMW instructions require an empty buffer and act on the
		// global store (which is what makes the paper's FADD-encoded
		// fences full fences on TSO).
		if !m.BufEmpty(tid) {
			return dst
		}
		label, enabled := prog.SCLabel(op, m.Mem[op.Loc], mm.valCount)
		if !enabled {
			return dst
		}
		nm := mm.succ(m)
		if label.Typ == lang.LRMW {
			nm.m.RMW(tid, label.Loc, label.VR, label.VW)
		}
		return append(dst, Succ{M: nm, Lab: label})
	}
}

func (mm *tsoModel) Internal(dst []Succ, ms State, tid lang.Tid) []Succ {
	m := ms.(*tsoState).m
	if !m.CanFlush(tid) {
		return dst
	}
	nm := mm.succ(m)
	nm.m.Flush(tid)
	return append(dst, Succ{M: nm})
}

// Quiescent: a state is quiescent when every buffer is empty, and then
// encodes as the store followed by one zero length per buffer.
func (mm *tsoModel) Quiescent() *Quiescence { return mm.quiet }

func (mm *tsoModel) Canon(State)    {}
func (mm *tsoModel) BoundHit() bool { return mm.boundHit }

// Symmetry: a thread's store buffer moves with it. The lazy machine is
// symmetric when its delayer set is a union of classes, which
// DelayerCandidates' syntactic filter guarantees.
func (mm *tsoModel) Symmetry(classes [][]int) ThreadPerm {
	if mm.lazySet != nil {
		for _, cls := range classes {
			for _, t := range cls[1:] {
				if mm.lazySet[t] != mm.lazySet[cls[0]] {
					return nil
				}
			}
		}
	}
	return tsoPerm{}
}

type tsoPerm struct{}

func (tsoPerm) CmpThreads(m State, a, b int) int {
	return m.(*tsoState).m.CmpBufs(lang.Tid(a), lang.Tid(b))
}

func (tsoPerm) EncodePerm(dst []byte, m State, perm []uint8) []byte {
	return m.(*tsoState).m.EncodePerm(dst, perm)
}

// ------------------------------------------------------------ RA/SRA ----

type raState struct{ m *memra.State }

func (s *raState) Clone() State           { return &raState{s.m.Clone()} }
func (s *raState) Encode(d []byte) []byte { return s.m.Encode(d) }

type raModel struct {
	numLocs, numThreads int
	mc                  memra.Machine
	trans               []memra.Trans
	cur                 *raState
}

// NewRA returns the §3 release/acquire timestamp machine (memra) as a
// MemoryModel; headroom follows staterobust.RAHeadroom semantics (0 =
// derive from the program's write count).
func NewRA(program *lang.Program, headroom int) MemoryModel {
	return newRA(program, headroom, false)
}

// NewSRA is NewRA for the SRA strengthening (globally maximal write
// slots; see memra.WriteSlotSRA).
func NewSRA(program *lang.Program, headroom int) MemoryModel {
	return newRA(program, headroom, true)
}

func newRA(program *lang.Program, headroom int, sra bool) MemoryModel {
	return &raModel{
		numLocs:    program.NumLocs(),
		numThreads: program.NumThreads(),
		mc: memra.Machine{
			SRA:      sra,
			Headroom: staterobust.RAHeadroom(program, staterobust.Limits{RAHeadroom: headroom}),
			ValCount: program.ValCount,
		},
	}
}

func (mm *raModel) Name() string {
	if mm.mc.SRA {
		return "sra"
	}
	return "ra"
}

func (mm *raModel) Init() State { return &raState{memra.New(mm.numLocs, mm.numThreads)} }

func (mm *raModel) Decode(d []byte) State {
	if mm.cur == nil {
		mm.cur = &raState{memra.New(mm.numLocs, mm.numThreads)}
	}
	mm.cur.m.Decode(d)
	return mm.cur
}

func (mm *raModel) Fork() MemoryModel {
	c := *mm
	c.trans, c.cur = nil, nil
	return &c
}

// Steps lists the transitions of memra.Machine.AppendSteps, the
// enumeration staterobust's RA explorer uses, each applied to a copy of m.
func (mm *raModel) Steps(dst []Succ, ms State, tid lang.Tid, op prog.MemOp) []Succ {
	m := ms.(*raState).m
	mm.trans = mm.mc.AppendSteps(mm.trans[:0], m, tid, op)
	for _, tr := range mm.trans {
		nm := m.Clone()
		nm.Apply(tid, tr)
		dst = append(dst, Succ{M: &raState{nm}, Lab: tr.Lab})
	}
	return dst
}

func (mm *raModel) Internal(dst []Succ, ms State, tid lang.Tid) []Succ { return dst }

func (mm *raModel) Quiescent() *Quiescence { return nil }

func (mm *raModel) Canon(ms State) { mm.mc.Canon(ms.(*raState).m) }

func (mm *raModel) BoundHit() bool { return false }

// Symmetry: the timestamp machine is not folded (its views are
// thread-indexed and canonicalized by Canon alone).
func (mm *raModel) Symmetry([][]int) ThreadPerm { return nil }
