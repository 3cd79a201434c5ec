package core

import (
	"time"

	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/memsc"
	"repro/internal/prog"
)

// SCVerdict is the result of a plain SC exploration.
type SCVerdict struct {
	// AssertFail reports a failed user assertion, if any.
	AssertFail *prog.AssertFailure
	// States is the number of distinct ⟨program, SC memory⟩ states.
	States int
	// Elapsed is the wall-clock exploration time.
	Elapsed time.Duration
	// AmpleHits, SleepSkips and SymmetryFolds mirror Verdict's reduction
	// counters; all 0 unless Options.Reduce. With symmetry on, a reported
	// AssertFail.Tid names a thread of the failing thread's symmetry
	// class — interchangeable by construction (this explorer keeps no
	// traces to concretize through).
	AmpleHits, SleepSkips, SymmetryFolds int64
}

// scScratch is the per-worker expansion state of the SC-only explorer:
// the plain-SC counterpart of scratch (no monitor state, a flat SC memory
// instead).
type scScratch struct {
	cur    prog.State
	nxt    prog.State
	ops    []prog.MemOp
	mem    memsc.Memory
	keyBuf []byte
	popBuf []byte
	free   [][]byte
	// Partial-order reduction scratch and counters (see scratch).
	perm                 []uint8
	cAmple, cSleep, cSym int64
}

func newSCScratch(p *prog.P, program *lang.Program) *scScratch {
	ws := &scScratch{
		mem: memsc.New(program.NumLocs()),
		ops: make([]prog.MemOp, program.NumThreads()),
	}
	ws.cur = prog.State{Threads: make([]prog.ThreadState, program.NumThreads())}
	ws.nxt = prog.State{Threads: make([]prog.ThreadState, program.NumThreads())}
	for i := range ws.cur.Threads {
		ws.cur.Threads[i].Regs = make([]lang.Val, program.Threads[i].NumRegs)
		ws.nxt.Threads[i].Regs = make([]lang.Val, program.Threads[i].NumRegs)
	}
	return ws
}

func (ws *scScratch) encode(p *prog.P, ps prog.State, m memsc.Memory) []byte {
	ws.keyBuf = ws.keyBuf[:0]
	ws.keyBuf = p.EncodeState(ws.keyBuf, ps)
	ws.keyBuf = m.Encode(ws.keyBuf)
	return ws.keyBuf
}

// pushPayload and recycle mirror scratch's zero-copy frontier discipline:
// nil payloads in exact mode, recycled buffers in hash-compact mode.
func (ws *scScratch) pushPayload(hashCompact bool, key []byte) []byte {
	if !hashCompact {
		return nil
	}
	var buf []byte
	if n := len(ws.free); n > 0 {
		buf = ws.free[n-1][:0]
		ws.free = ws.free[:n-1]
	}
	return append(buf, key...)
}

func (ws *scScratch) recycle(buf []byte) {
	if buf != nil {
		ws.free = append(ws.free, buf)
	}
}

// VerifySC explores the program under plain (uninstrumented) sequential
// consistency, checking only user assertions. This is the paper's "SC"
// comparison column in Figure 7: the cost of ordinary SC model checking,
// against which the robustness instrumentation's overhead is measured.
//
// Like Verify, it explores in parallel when Options.Workers resolves to
// more than one worker; Workers = 1 is the sequential reference path. Both
// paths share the allocation-free hot loop shape of Verify: encoded
// frontier (id-only in exact mode), per-worker scratch decode, clone-free
// ApplyInto stepping.
func VerifySC(program *lang.Program, opts Options) (*SCVerdict, error) {
	if opts.workerCount() > 1 {
		return verifySCParallel(program, opts)
	}
	start := time.Now()
	if err := program.Validate(); err != nil {
		return nil, err
	}
	p := prog.New(program)
	verdict := &SCVerdict{}
	var ws *scScratch
	finish := func() (*SCVerdict, error) {
		// Mirror Verify: a canceled run yields ErrCanceled, never a verdict.
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return nil, canceled(opts.Ctx)
		}
		if ws != nil {
			verdict.AmpleHits, verdict.SleepSkips, verdict.SymmetryFolds = ws.cAmple, ws.cSleep, ws.cSym
		}
		verdict.Elapsed = time.Since(start)
		return verdict, nil
	}
	ps0, fail := p.InitState()
	if fail != nil {
		verdict.AssertFail = fail
		return finish()
	}
	var red *reducer
	if opts.Reduce {
		red = newReducer(program, p, nil)
	}
	useSleep := red != nil && !opts.HashCompact && red.nT <= maxSleepThreads
	var store *explore.Store
	if opts.HashCompact {
		store = explore.NewHashCompactStore()
	} else {
		store = explore.NewStore()
	}
	var queue explore.Queue[[]byte]
	ws = newSCScratch(p, program)
	if red != nil {
		ws.perm = make([]uint8, red.nT)
	}
	m0 := memsc.New(program.NumLocs())
	rootKey := ws.encode(p, ps0, m0)
	root, _ := store.AddBytes(rootKey, -1, explore.Step{})
	if opts.HashCompact {
		queue.Push(root, ws.pushPayload(true, rootKey))
	}
	// Exact mode: the dense id sequence is the implicit FIFO frontier
	// (see Verify); the queue is only used in hash-compact mode.
	every := int64(opts.ProgressEvery)
	if every <= 0 {
		every = 4096
	}
	expanded := int64(0)
	next := int32(0)
	// requeue holds states whose sleep mask strictly shrank on a revisit
	// (see Verify).
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
			return nil, explore.ErrBound
		}
		if opts.Ctx != nil && expanded&ctxPollMask == 0 && opts.Ctx.Err() != nil {
			return nil, canceled(opts.Ctx)
		}
		expanded++
		if opts.Progress != nil && expanded%every == 0 {
			opts.Progress(Progress{States: store.Len(), Expanded: expanded})
		}
		itemKey := item.St
		n := p.DecodeState(itemKey, ws.cur)
		for i := range ws.mem {
			ws.mem[i] = lang.Val(itemKey[n+i])
		}
		p.OpsInto(ws.ops, ws.cur)
		ampleT := -1
		if red != nil {
			ampleT = red.ample(ws.mem, ws.cur, ws.nxt, ws.ops)
			if ampleT >= 0 && !requeued {
				ws.cAmple++
			}
		}
		var sleepZ, expandedSoFar uint64
		if useSleep {
			sleepZ = store.Sleep(item.ID)
		}
		for t, op := range ws.ops {
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
			label, enabled := prog.SCLabel(op, ws.mem[op.Loc], program.ValCount)
			if !enabled {
				continue
			}
			afail := p.Threads[t].ApplyInto(ws.cur.Threads[t], label, &ws.nxt.Threads[t])
			if afail != nil {
				verdict.AssertFail = afail
				verdict.States = store.Len()
				return finish()
			}
			var cz uint64
			if useSleep {
				cz = childSleep(ws.ops, t, sleepZ|expandedSoFar)
			}
			expandedSoFar |= uint64(1) << t
			savedTS := ws.cur.Threads[t]
			savedVal := ws.mem[op.Loc]
			ws.cur.Threads[t] = ws.nxt.Threads[t]
			ws.mem.Step(label)
			var key []byte
			if red != nil && red.symm() && !red.canonPerm(ws.cur, nil, ws.perm) {
				if !requeued {
					ws.cSym++
				}
				cz = permuteMask(cz, ws.perm)
				ws.keyBuf = ws.keyBuf[:0]
				ws.keyBuf = p.EncodeStatePerm(ws.keyBuf, ws.cur, ws.perm)
				ws.keyBuf = ws.mem.Encode(ws.keyBuf)
				key = ws.keyBuf
			} else {
				key = ws.encode(p, ws.cur, ws.mem)
			}
			ws.cur.Threads[t] = savedTS
			ws.mem[op.Loc] = savedVal
			if useSleep {
				if id, _, shrunk := store.AddBytesSleep(key, -1, explore.Step{}, cz); shrunk && id < next {
					requeue = append(requeue, id)
				}
			} else if id, isNew := store.AddBytes(key, -1, explore.Step{}); isNew && opts.HashCompact {
				queue.Push(id, ws.pushPayload(true, key))
			}
		}
		if opts.HashCompact {
			ws.recycle(item.St)
		}
	}
	verdict.States = store.Len()
	return finish()
}
