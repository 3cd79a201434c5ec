package model

import (
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/memtso"
	"repro/internal/prog"
	"repro/internal/staterobust"
)

// This file keeps the sequential exhaustive TSO explorer that answered
// mode state-tso before it moved onto CheckState with NewTSO. It shares
// no code with CheckState beyond the SC backbone (staterobust.ReachableSC)
// and the memtso machine, which makes it the independent oracle of the
// state-tso parity tests (TestTSOAdapterParity, TestTSOAttackStateCounts).

// oracleCheckTSO decides state robustness of the program against x86-TSO with
// store buffers bounded by lim.TSOBufCap. It explores the product of the
// program with the TSO machine and reports the first program state not
// reachable under SC, if any.
//
// Semantics of the instruction set on TSO: writes enter the thread's
// buffer; reads forward from the thread's own buffer; all RMWs (FADD, CAS
// — successful or failed —, BCAS, XCHG) are locked instructions requiring
// an empty buffer, which is what makes the paper's FADD-encoded fences
// full fences on TSO; a blocking wait reads like a load. A per-thread
// internal flush action commits buffered writes in FIFO order.
func oracleCheckTSO(program *lang.Program, lim staterobust.Limits) (*staterobust.Result, error) {
	bufCap := lim.TSOBufCap
	if bufCap <= 0 {
		bufCap = 8
	}
	scSet, err := staterobust.ReachableSC(program, lim)
	if err != nil {
		return nil, err
	}
	p := prog.New(program)
	res := &staterobust.Result{Robust: true, SCStates: scSet.Len()}

	type node struct {
		ps prog.State
		m  *memtso.State
	}
	ps0 := p.InitStateRaw()
	store := explore.NewStore()
	var queue explore.Queue[node]
	// key encodes into a reused buffer; the store interns the bytes in its
	// arena, so no per-Add string materialization is needed.
	var buf []byte
	key := func(ps prog.State, m *memtso.State) []byte {
		buf = buf[:0]
		buf = p.EncodeStateRaw(buf, ps)
		buf = m.Encode(buf)
		return buf
	}
	pj := staterobust.NewProjector(p, lim)
	weak := explore.NewSet()
	var pbuf []byte
	check := func(id int32, ps prog.State) bool {
		pbuf = p.EncodeStateRaw(pbuf[:0], ps)
		pk := pj.Key(pbuf)
		if _, isNew := weak.Add(pk); isNew && !scSet.Has(pk) {
			res.Robust = false
			if res.WitnessTrace == nil {
				res.WitnessTrace = store.Trace(id)
			}
			return true
		}
		return false
	}
	root, _ := store.AddBytes(key(ps0, memtso.New(program.NumLocs(), program.NumThreads())), -1, explore.Step{})
	queue.Push(root, node{ps0, memtso.New(program.NumLocs(), program.NumThreads())})
	if check(root, ps0) {
		res.Explored = store.Len()
		return res, nil
	}
	popped := 0
	for {
		item, ok := queue.Pop()
		if !ok {
			break
		}
		if store.Len() > lim.StateBound() {
			return nil, explore.ErrBound
		}
		if popped&255 == 0 && (lim.Ctx != nil && lim.Ctx.Err() != nil) {
			return nil, lim.Err()
		}
		popped++
		if lim.Progress != nil && popped%4096 == 0 {
			lim.Progress(store.Len())
		}
		n := item.St
		// Program actions (ε-granular, see ReachableSC).
		for t := range p.Threads {
			th := &p.Threads[t]
			ts := n.ps.Threads[t]
			tid := lang.Tid(t)
			if th.Terminated(ts) {
				continue
			}
			if th.AtEps(ts) {
				nextTS, afail := th.StepEps(ts)
				if afail != nil {
					continue
				}
				nextPS := n.ps.Clone()
				nextPS.Threads[t] = nextTS
				id, isNew := store.AddBytes(key(nextPS, n.m), item.ID,
					explore.Step{Tid: tid, Internal: explore.IntEps})
				if isNew {
					if check(id, nextPS) {
						res.Explored = store.Len()
						res.WeakStates = weak.Len()
						return res, nil
					}
					queue.Push(id, node{nextPS, n.m.Clone()})
				}
				continue
			}
			op := th.Op(ts)
			var label lang.Label
			switch op.Kind {
			case prog.OpWrite:
				if !n.m.CanWrite(tid, bufCap) {
					res.BufBoundHit = true
					continue
				}
				label = lang.WriteLab(op.Loc, op.WVal)
			case prog.OpRead:
				label = lang.ReadLab(op.Loc, n.m.Lookup(tid, op.Loc))
			case prog.OpWait:
				if n.m.Lookup(tid, op.Loc) != op.WVal {
					continue
				}
				label = lang.ReadLab(op.Loc, op.WVal)
			default:
				// Locked RMW instructions: require an empty buffer.
				if !n.m.BufEmpty(tid) {
					continue
				}
				cur := n.m.Mem[op.Loc]
				var enabled bool
				label, enabled = prog.SCLabel(op, cur, program.ValCount)
				if !enabled {
					continue
				}
			}
			nextPS := n.ps.Clone()
			nextPS.Threads[t] = th.ApplyRaw(ts, label)
			nextM := n.m.Clone()
			switch label.Typ {
			case lang.LWrite:
				nextM.Write(tid, label.Loc, label.VW)
			case lang.LRMW:
				nextM.RMW(tid, label.Loc, label.VR, label.VW)
			}
			id, isNew := store.AddBytes(key(nextPS, nextM), item.ID, explore.Step{Tid: tid, Lab: label})
			if isNew {
				if check(id, nextPS) {
					res.Explored = store.Len()
					res.WeakStates = weak.Len()
					return res, nil
				}
				queue.Push(id, node{nextPS, nextM})
			}
		}
		// Internal flush actions.
		for t := 0; t < program.NumThreads(); t++ {
			tid := lang.Tid(t)
			if !n.m.CanFlush(tid) {
				continue
			}
			nextM := n.m.Clone()
			nextM.Flush(tid)
			id, isNew := store.AddBytes(key(n.ps, nextM), item.ID,
				explore.Step{Tid: tid, Internal: explore.IntFlush})
			if isNew {
				queue.Push(id, node{n.ps.Clone(), nextM})
			}
		}
	}
	if lim.Ctx != nil && lim.Ctx.Err() != nil {
		return nil, lim.Err()
	}
	res.Explored = store.Len()
	res.WeakStates = weak.Len()
	return res, nil
}
