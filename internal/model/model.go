// Package model abstracts the repository's operational memory subsystems
// behind one MemoryModel interface and grows the cross-model verification
// matrix on top of it: one program in, a verdict per model out.
//
// Before this package, the four machines — SC (memsc), RA and SRA (memra),
// and TSO (memtso) — were each wired ad hoc into their own explorer
// (staterobust's ReachableSC, checkWeakRA, and CheckTSO). The interface
// factors the wiring into its four roles:
//
//   - init: the initial memory state for a program shape (Init);
//   - step: the successors of a memory state under one program operation,
//     plus memory-internal transitions such as TSO flushes (Steps,
//     Internal);
//   - canonicalize: the state normalization that keeps the product finite
//     and collapses equivalent states (Canon — timestamp renumbering for
//     RA/SRA, a no-op for SC and TSO);
//   - robustness-monitor: how non-SC behavior is detected on top of the
//     reachable states. For the state models the monitor is generic — the
//     program-state projection of every reached product state is compared
//     against the SC-reachable set (Definition 2.6, CheckState) — while
//     the execution-graph modes use the internal/scm monitor through
//     internal/core and are dispatched by the registry (registry.go), not
//     through this interface.
//
// CheckState (check.go) is the one product explorer behind the interface:
// a level-synchronous parallel BFS on the sharded arena store, one model
// instance (Fork) per worker, with every state decoded from its key. The
// specialized staterobust engines remain the production paths for the
// state-ra, state-sra and state-tso modes; the adapters here are pinned
// equal to them by parity tests. The production user of the interface is
// the polynomial instrumented TSO checker (tsoattack.go), whose
// single-delayer machines are TSO adapter instances with a restricted
// delayer set.
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
}

// ---------------------------------------------------------------- SC ----

type scState struct{ m memsc.Memory }

func (s *scState) Clone() State           { return &scState{s.m.Clone()} }
func (s *scState) Encode(d []byte) []byte { return s.m.Encode(d) }

type scModel struct {
	numLocs  int
	valCount int
	cur      *scState
}

// NewSC returns the SC memory (memsc) as a MemoryModel.
func NewSC(program *lang.Program) MemoryModel {
	return &scModel{numLocs: program.NumLocs(), valCount: program.ValCount}
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
func (mm *scModel) Fork() MemoryModel                                  { return &scModel{numLocs: mm.numLocs, valCount: mm.valCount} }

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
	boundHit bool
	// cur is Decode's scratch, next the one successor a Steps or
	// Internal call yields (the machine is deterministic per operation).
	cur, next *tsoState
}

// NewTSO returns the full x86-TSO machine (memtso) as a MemoryModel.
// bufCap bounds each store buffer (0 = 8, matching
// staterobust.CheckTSO).
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
	return &tsoModel{
		numLocs:    program.NumLocs(),
		numThreads: program.NumThreads(),
		valCount:   program.ValCount,
		bufCap:     bufCap,
		lazySet:    lazySet,
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

func (mm *tsoModel) Canon(State)    {}
func (mm *tsoModel) BoundHit() bool { return mm.boundHit }

// ------------------------------------------------------------ RA/SRA ----

type raState struct{ m *memra.State }

func (s *raState) Clone() State           { return &raState{s.m.Clone()} }
func (s *raState) Encode(d []byte) []byte { return s.m.Encode(d) }

type raModel struct {
	numLocs, numThreads int
	valCount            int
	sra                 bool
	headroom, gapCap    int
	cands               []memra.Msg
	slots               []memra.Time
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
	if headroom <= 0 {
		headroom = staterobust.RAHeadroom(program, staterobust.Limits{})
	}
	return &raModel{
		numLocs:    program.NumLocs(),
		numThreads: program.NumThreads(),
		valCount:   program.ValCount,
		sra:        sra,
		headroom:   headroom,
		gapCap:     headroom + 1,
	}
}

func (mm *raModel) Name() string {
	if mm.sra {
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
	c.cands, c.slots, c.cur = nil, nil, nil
	return &c
}

// Steps mirrors staterobust.checkWeakRA's candidate enumeration exactly
// (Figure 2 semantics): write slots (SRA: the single maximal slot), read
// candidates filtered by a wait's expected value, RMW candidates with the
// FADD/XCHG/CAS value computation, and the failed-CAS plain read.
func (mm *raModel) Steps(dst []Succ, ms State, tid lang.Tid, op prog.MemOp) []Succ {
	m := ms.(*raState).m
	switch op.Kind {
	case prog.OpWrite:
		if mm.sra {
			mm.slots = append(mm.slots[:0], m.WriteSlotSRA(op.Loc))
		} else {
			mm.slots = m.AppendWriteSlots(mm.slots[:0], tid, op.Loc, mm.headroom)
		}
		for _, slot := range mm.slots {
			nm := m.Clone()
			nm.Write(tid, op.Loc, op.WVal, slot)
			dst = append(dst, Succ{M: &raState{nm}, Lab: lang.WriteLab(op.Loc, op.WVal)})
		}
	case prog.OpRead, prog.OpWait:
		mm.cands = m.AppendReadCandidates(mm.cands[:0], tid, op.Loc)
		for _, msg := range mm.cands {
			if op.Kind == prog.OpWait && msg.Val != op.WVal {
				continue
			}
			nm := m.Clone()
			nm.Read(tid, msg)
			dst = append(dst, Succ{M: &raState{nm}, Lab: lang.ReadLab(op.Loc, msg.Val)})
		}
	case prog.OpFADD, prog.OpXCHG, prog.OpCAS, prog.OpBCAS:
		if mm.sra {
			mm.cands = m.AppendRMWCandidatesSRA(mm.cands[:0], tid, op.Loc)
		} else {
			mm.cands = m.AppendRMWCandidates(mm.cands[:0], tid, op.Loc)
		}
		for _, msg := range mm.cands {
			var vW lang.Val
			switch op.Kind {
			case prog.OpFADD:
				vW = lang.Val((int(msg.Val) + int(op.Add)) % mm.valCount)
			case prog.OpXCHG:
				vW = op.New
			case prog.OpCAS, prog.OpBCAS:
				if msg.Val != op.Exp {
					continue // handled as a plain read below for CAS
				}
				vW = op.New
			}
			nm := m.Clone()
			nm.RMW(tid, msg, vW)
			dst = append(dst, Succ{M: &raState{nm}, Lab: lang.RMWLab(op.Loc, msg.Val, vW)})
		}
		if op.Kind == prog.OpCAS {
			// Failed CAS: a plain read of any value ≠ Exp (Figure 2).
			mm.cands = m.AppendReadCandidates(mm.cands[:0], tid, op.Loc)
			for _, msg := range mm.cands {
				if msg.Val == op.Exp {
					continue
				}
				nm := m.Clone()
				nm.Read(tid, msg)
				dst = append(dst, Succ{M: &raState{nm}, Lab: lang.ReadLab(op.Loc, msg.Val)})
			}
		}
	}
	return dst
}

func (mm *raModel) Internal(dst []Succ, ms State, tid lang.Tid) []Succ { return dst }

func (mm *raModel) Canon(ms State) { ms.(*raState).m.Canonicalize(mm.gapCap) }

func (mm *raModel) BoundHit() bool { return false }
