package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/memsc"
	"repro/internal/prog"
	"repro/internal/scm"
)

// engineOpts translates Options' cancellation and progress hooks into the
// parallel engine's RunOpts, closing over the store for the interned-state
// count. Both parallel explorers (RA/SCM and plain SC) use it.
func engineOpts(opts Options, store *explore.Sharded) explore.RunOpts {
	ro := explore.RunOpts{Ctx: opts.Ctx, ProgressEvery: int64(opts.ProgressEvery)}
	if opts.Progress != nil {
		ro.Progress = func(expanded int64) {
			opts.Progress(Progress{States: store.Len(), Expanded: expanded})
		}
	}
	return ro
}

// verifyParallel is the multi-worker counterpart of Verify's exploration
// loop: N workers expand frontier states concurrently against a sharded
// visited set, each with private decode/expansion scratch (the compiled
// program and the monitor are read-only after construction, so they are
// shared). Frontier hand-off is batched through per-worker local buffers
// (see explore.RunParallel), keeping the shared lock off the per-state
// hot path.
//
// Determinism: on robust programs the full state space is explored, so
// verdict and state count match the sequential path exactly. On
// violations, any worker finding one cancels the search cooperatively;
// which violating state is reported first (and hence the trace and the
// partial state count) depends on scheduling, but whether a violation
// exists does not, and the per-shard parent/step links always rebuild a
// valid (not necessarily shortest) SC run to the reported state.
func verifyParallel(program *lang.Program, opts Options) (*Verdict, error) {
	start := time.Now()
	v, err := newVerifier(program, opts)
	if err != nil {
		return nil, err
	}
	verdict := &Verdict{Robust: true, MetadataBits: v.mon.Bits()}
	v.annotate(verdict)
	finish := func() (*Verdict, error) {
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
	// which hash-compacted stores cannot) and per-state uint64 masks. The
	// final masks are the greatest fixpoint of a monotone intersection
	// system, reached by chaotic iteration in any order (shrinks re-queue
	// the state via a complemented-id marker), so the explored state set —
	// and hence States — stays worker-count-independent.
	useSleep := red != nil && !opts.HashCompact && red.nT <= maxSleepThreads

	workers := opts.workerCount()
	store := explore.NewSharded(opts.HashCompact)
	scratches := make([]*scratch, workers)
	for w := range scratches {
		scratches[w] = v.newScratch(program)
		if red != nil {
			scratches[w].perm = make([]uint8, red.nT)
		}
	}
	rootKey := scratches[0].encode(v, ps0, ms0)
	rootID, _ := store.Add(rootKey, -1, explore.Step{})
	// Zero-copy frontier (see Verify): exact-mode items carry only the
	// store id — the key is re-materialized from the shard's arena into
	// per-worker scratch on expansion; hash-compact payload buffers are
	// recycled through per-worker free lists (a buffer pushed by one worker
	// and expanded by another simply migrates to the expander's list).
	roots := []explore.Item[[]byte]{{ID: rootID, St: scratches[0].pushPayload(opts.HashCompact, rootKey)}}

	// Shared result slots, written under mu by whichever worker finds a
	// violation / assertion failure / bound overrun first.
	var (
		mu         sync.Mutex
		violations []*scm.Violation
		violID     int64
		haveViol   bool
		assertFail *prog.AssertFailure
		assertID   int64
		assertStep explore.Step
		bound      bool
	)
	// record registers a violation; it returns false when the search
	// should stop (the first violation, unless collecting all of them).
	record := func(id int64, viol *scm.Violation) bool {
		mu.Lock()
		violations = append(violations, viol)
		if !haveViol {
			haveViol = true
			violID = id
		}
		mu.Unlock()
		return opts.KeepAllViolations
	}

	expand := func(w int, it explore.Item[[]byte], push func(explore.Item[[]byte])) bool {
		if opts.MaxStates > 0 && store.Len() > opts.MaxStates {
			mu.Lock()
			bound = true
			mu.Unlock()
			return false
		}
		ws := scratches[w]
		requeued := false
		if it.ID < 0 {
			// Sleep-mask shrink marker (see the AddSleep call below): the
			// state is re-expanded so formerly elided edges get explored;
			// checks and counters are not repeated.
			it.ID = ^it.ID
			requeued = true
		}
		itemKey := it.St
		if !opts.HashCompact {
			ws.popBuf = store.AppendKey(ws.popBuf[:0], it.ID)
			itemKey = ws.popBuf
		}
		n := v.p.DecodeState(itemKey, ws.cur)
		v.mon.Decode(itemKey[n:], &ws.curMS)
		ops := ws.ops
		v.p.OpsInto(ops, ws.cur)

		if !requeued {
			for t := range ops {
				if viol := v.mon.CheckOp(&ws.curMS, lang.Tid(t), ops[t]); viol != nil {
					if !record(it.ID, viol) {
						return false
					}
				}
			}
			if v.hasNA {
				if viol := v.mon.CheckRace(ops); viol != nil {
					if !record(it.ID, viol) {
						return false
					}
				}
			}
		}

		ampleT := -1
		if red != nil {
			ampleT = red.ample(ws.curMS.M, ws.cur, ws.nxt, ops)
			if ampleT >= 0 && !requeued {
				ws.cAmple++
			}
		}
		var sleepZ, expandedSoFar uint64
		if useSleep {
			sleepZ = store.Sleep(it.ID)
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
				mu.Lock()
				if assertFail == nil {
					assertFail = afail
					assertID = it.ID
					assertStep = step
				}
				mu.Unlock()
				return false
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
				// Exact mode: payloads are nil, so markers carry no state.
				id, isNew, shrunk := store.AddSleep(key, it.ID, step, cz)
				if isNew {
					push(explore.Item[[]byte]{ID: id})
				} else if shrunk {
					push(explore.Item[[]byte]{ID: ^id})
				}
			} else {
				id, isNew := store.Add(key, it.ID, step)
				if isNew {
					push(explore.Item[[]byte]{ID: id, St: ws.pushPayload(opts.HashCompact, key)})
				}
			}
		}
		ws.recycle(it.St)
		return true
	}

	explore.RunParallelOpts(workers, roots, expand, engineOpts(opts, store))
	// Workers have quiesced: the shared slots and the store are stable.
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		return nil, canceled(opts.Ctx)
	}
	verdict.States = store.Len()
	for _, ws := range scratches {
		verdict.AmpleHits += ws.cAmple
		verdict.SleepSkips += ws.cSleep
		verdict.SymmetryFolds += ws.cSym
	}
	if bound {
		return nil, fmt.Errorf("%w (%d states)", explore.ErrBound, store.Len())
	}
	if assertFail != nil {
		verdict.Robust = false
		verdict.Trace = append(store.Trace(assertID), assertStep)
		if red != nil && red.symm() {
			explore.Concretize(verdict.Trace, red.nT)
			af := *assertFail
			af.Tid = verdict.Trace[len(verdict.Trace)-1].Tid
			assertFail = &af
		}
		verdict.AssertFail = assertFail
	}
	if len(violations) > 0 {
		verdict.Robust = false
		if verdict.Trace == nil {
			verdict.Trace = store.Trace(violID)
			if red != nil && red.symm() {
				// violations[0] is the one violID was recorded for; later
				// ones (KeepAllViolations) stay canonical, which symmetry
				// keeps truthful.
				violations[0] = concretizeViolation(violations[0], explore.Concretize(verdict.Trace, red.nT))
			}
		}
		verdict.Violations = violations
	}
	return finish()
}

// verifySCParallel mirrors VerifySC on the parallel engine: plain SC
// product exploration (assertion checking only), frontier items carrying
// the packed ⟨program state, SC memory⟩ encoding.
func verifySCParallel(program *lang.Program, opts Options) (*SCVerdict, error) {
	start := time.Now()
	if err := program.Validate(); err != nil {
		return nil, err
	}
	p := prog.New(program)
	verdict := &SCVerdict{}
	ps0, fail := p.InitState()
	if fail != nil {
		verdict.AssertFail = fail
		verdict.Elapsed = time.Since(start)
		return verdict, nil
	}

	var red *reducer
	if opts.Reduce {
		red = newReducer(program, p, nil)
	}
	useSleep := red != nil && !opts.HashCompact && red.nT <= maxSleepThreads

	workers := opts.workerCount()
	store := explore.NewSharded(opts.HashCompact)
	scratches := make([]*scScratch, workers)
	for w := range scratches {
		scratches[w] = newSCScratch(p, program)
		if red != nil {
			scratches[w].perm = make([]uint8, red.nT)
		}
	}

	var (
		mu         sync.Mutex
		assertFail *prog.AssertFailure
		bound      bool
	)
	m0 := memsc.New(program.NumLocs())
	rootKey := scratches[0].encode(p, ps0, m0)
	rootID, _ := store.Add(rootKey, -1, explore.Step{})
	roots := []explore.Item[[]byte]{{ID: rootID, St: scratches[0].pushPayload(opts.HashCompact, rootKey)}}

	expand := func(w int, it explore.Item[[]byte], push func(explore.Item[[]byte])) bool {
		if opts.MaxStates > 0 && store.Len() > opts.MaxStates {
			mu.Lock()
			bound = true
			mu.Unlock()
			return false
		}
		ws := scratches[w]
		requeued := false
		if it.ID < 0 {
			// Sleep-mask shrink marker (see verifyParallel).
			it.ID = ^it.ID
			requeued = true
		}
		itemKey := it.St
		if !opts.HashCompact {
			ws.popBuf = store.AppendKey(ws.popBuf[:0], it.ID)
			itemKey = ws.popBuf
		}
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
			sleepZ = store.Sleep(it.ID)
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
				mu.Lock()
				if assertFail == nil {
					assertFail = afail
				}
				mu.Unlock()
				return false
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
				id, isNew, shrunk := store.AddSleep(key, -1, explore.Step{}, cz)
				if isNew {
					push(explore.Item[[]byte]{ID: id})
				} else if shrunk {
					push(explore.Item[[]byte]{ID: ^id})
				}
			} else if id, isNew := store.Add(key, -1, explore.Step{}); isNew {
				push(explore.Item[[]byte]{ID: id, St: ws.pushPayload(opts.HashCompact, key)})
			}
		}
		ws.recycle(it.St)
		return true
	}

	explore.RunParallelOpts(workers, roots, expand, engineOpts(opts, store))
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		return nil, canceled(opts.Ctx)
	}
	verdict.States = store.Len()
	verdict.AssertFail = assertFail
	for _, ws := range scratches {
		verdict.AmpleHits += ws.cAmple
		verdict.SleepSkips += ws.cSleep
		verdict.SymmetryFolds += ws.cSym
	}
	if bound {
		return nil, explore.ErrBound
	}
	verdict.Elapsed = time.Since(start)
	return verdict, nil
}
