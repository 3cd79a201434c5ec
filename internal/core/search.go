package core

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/memsc"
	"repro/internal/prog"
	"repro/internal/scm"
)

// search is one run of the exploration engine behind Verify and VerifySC:
// a level-synchronous breadth-first search (explore.RunLevels) of the
// program composed with its memory, the instrumented SCM of §5 when the
// verifier has a monitor and plain SC memory when it has none. Only the
// expansion of a state tells the two machines apart; the driver owns the
// stopping rule, the state bound, cancellation and progress, the trace
// links and the reduction counters.
//
// Stopping rule. A level whose expansion meets a finding — a violation of
// a state, or an assertion failing on one of its steps — is expanded and
// committed in full, and the search stops there. It reports the least
// finding of the level: violations before assertion failures, then the
// smallest state encoding, then the lowest thread id (a state's races
// rank after its per-thread violations). So States, the finding and the
// trace, a shortest one, do not depend on the worker count or schedule.
//
// Sleep sets (Options.Reduce, exact store only) ride on the store's sleep
// lane: a state's mask is the intersection over its parents in the level
// that interned it, and a state whose mask strictly shrinks after its
// expansion is expanded once more on the next level, without repeating
// its checks or counters (explore.Batch.AddSleep). The ample set and the
// symmetry canonical form depend on the state alone, so each level's
// states and masks, and hence every counter, are schedule-independent.
type search struct {
	*verifier
	red   *reducer
	sleep bool // sleep sets on
	store *explore.Sharded
	ws    []*worker

	mu    sync.Mutex
	found *finding // the least finding so far
}

// worker is one worker's decode and expansion scratch: the current
// program state and a successor for the clone-free ApplyInto kernel, the
// pending operations, the memory of the current state (the monitor
// state, or the plain SC memory) and of a successor, the encode buffer,
// the symmetry permutation and the reduction counters. Steady-state
// expansion allocates nothing.
type worker struct {
	cur, nxt          prog.State
	ops               []prog.MemOp
	ms                scm.State
	nextMS            *scm.State
	mem               memsc.Memory
	key               []byte
	perm              []uint8
	ample, sleep, sym int64
}

// A finding is what ends a search: a violation of state id, or an
// assertion failing on the state's step.
type finding struct {
	key  []byte // the state's encoding
	rank int    // the thread id; a race ranks after every thread
	id   int64
	viol *scm.Violation
	fail *prog.AssertFailure
	step explore.Step // the failing step
}

// less orders findings: violations first, then by state encoding and rank.
func (f *finding) less(g *finding) bool {
	if (f.fail == nil) != (g.fail == nil) {
		return f.fail == nil
	}
	if c := bytes.Compare(f.key, g.key); c != 0 {
		return c < 0
	}
	return f.rank < g.rank
}

// explore searches the states reachable from the program state ps0 with
// the initial memory, and returns the finished search: ErrBound when a
// level ends above Options.MaxStates, ErrCanceled when Options.Ctx is
// cancelled before the search ends.
func (v *verifier) explore(ps0 prog.State, opts Options) (*search, error) {
	s := &search{verifier: v, store: explore.NewSharded(opts.HashCompact)}
	if opts.Reduce {
		s.red = newReducer(v.program, v.p, v.mon)
		// The sleep lane needs the states' keys after their expansion,
		// which a hash-compacted store drops, and masks of 64 threads.
		s.sleep = !opts.HashCompact && s.red.nT <= maxSleepThreads
	}
	s.ws = make([]*worker, opts.workerCount())
	for w := range s.ws {
		s.ws[w] = s.newWorker()
	}
	ws := s.ws[0]
	ws.cur.CopyFrom(ps0)
	if v.mon != nil {
		v.mon.Reset(ws.nextMS)
	}
	root, _ := s.store.Add(s.encode(ws, nil), -1, explore.Step{})
	ro := explore.RunOpts{Ctx: opts.Ctx, ProgressEvery: int64(opts.ProgressEvery)}
	if opts.Progress != nil {
		ro.Progress = func(expanded int64) {
			opts.Progress(Progress{States: s.store.Len(), Expanded: expanded})
		}
	}
	commits := []explore.Commit{{Into: s.store, Limit: opts.MaxStates}}
	more := func() bool { return s.found == nil }
	done := explore.RunLevels(len(s.ws), [][]int64{{root}}, s.expand, commits, more, ro)
	// A cancelled run never reports a verdict, even if the search happened
	// to end before a poll noticed: the caller asked for cancellation.
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		return nil, canceled(opts.Ctx)
	}
	if !done {
		return nil, fmt.Errorf("%w (%d states)", explore.ErrBound, s.store.Len())
	}
	return s, nil
}

func (s *search) newWorker() *worker {
	n := len(s.p.Threads)
	ws := &worker{ops: make([]prog.MemOp, n), perm: make([]uint8, n)}
	ws.cur = prog.State{Threads: make([]prog.ThreadState, n)}
	ws.nxt = prog.State{Threads: make([]prog.ThreadState, n)}
	for i := range ws.cur.Threads {
		ws.cur.Threads[i].Regs = make([]lang.Val, s.program.Threads[i].NumRegs)
		ws.nxt.Threads[i].Regs = make([]lang.Val, s.program.Threads[i].NumRegs)
	}
	if s.mon != nil {
		ws.nextMS = s.mon.Init()
	} else {
		ws.mem = memsc.New(s.program.NumLocs())
	}
	return ws
}

// encode sets ws.key to the encoding of the successor in ws.cur with
// ws.nextMS (plain SC: ws.mem), its threads permuted by perm unless nil.
func (s *search) encode(ws *worker, perm []uint8) []byte {
	if perm != nil {
		ws.key = s.p.EncodeStatePerm(ws.key[:0], ws.cur, perm)
	} else {
		ws.key = s.p.EncodeState(ws.key[:0], ws.cur)
	}
	switch {
	case s.mon == nil:
		ws.key = ws.mem.Encode(ws.key)
	case perm != nil:
		ws.key = s.mon.EncodePerm(ws.key, ws.nextMS, perm)
	default:
		ws.key = s.mon.Encode(ws.key, ws.nextMS)
	}
	return ws.key
}

// expand is the RunLevels expansion of state id by worker w: the state's
// checks, then its successors — every SC-enabled thread action or, with
// Reduce, a single ample representative when one qualifies, minus the
// edges the state's sleep mask proves redundant (an ample state ignores
// the mask: its one representative is always expanded).
func (s *search) expand(w int, id int64, b *explore.Batch) bool {
	ws := s.ws[w]
	revisit := id&explore.Revisit != 0
	id &^= explore.Revisit
	key := s.store.Key(id)
	n := s.p.DecodeState(key, ws.cur)
	mem := ws.mem
	if s.mon != nil {
		s.mon.Decode(key[n:], &ws.ms)
		mem = ws.ms.M
	} else {
		mem.Decode(key[n:])
	}
	ops := ws.ops
	s.p.OpsInto(ops, ws.cur)
	if s.mon != nil && !revisit {
		if viol, rank := s.violation(&ws.ms, ops); viol != nil {
			s.report(&finding{key: key, rank: rank, id: id, viol: viol})
		}
	}
	ampleT := -1
	if s.red != nil {
		if ampleT = s.red.ample(mem, ws.cur, ws.nxt, ops); ampleT >= 0 && !revisit {
			ws.ample++
		}
	}
	var sleepZ, done uint64
	if s.sleep {
		sleepZ = s.store.Sleep(id)
	}
	for t, op := range ops {
		if op.Kind == prog.OpNone {
			continue
		}
		if ampleT >= 0 {
			if t != ampleT {
				continue
			}
		} else if sleepZ>>t&1 != 0 {
			if !revisit {
				ws.sleep++
			}
			continue
		}
		label, enabled := prog.SCLabel(op, mem[op.Loc], s.program.ValCount)
		if !enabled {
			continue // blocked wait/BCAS
		}
		step := explore.Step{Tid: lang.Tid(t), Lab: label}
		if fail := s.p.Threads[t].ApplyInto(ws.cur.Threads[t], label, &ws.nxt.Threads[t]); fail != nil {
			s.report(&finding{key: key, rank: t, id: id, fail: fail, step: step})
			continue
		}
		var cz uint64
		if s.sleep {
			cz = childSleep(ops, t, sleepZ|done)
		}
		done |= uint64(1) << t
		savedTS, savedVal := ws.cur.Threads[t], mem[op.Loc]
		ws.cur.Threads[t] = ws.nxt.Threads[t]
		var ms *scm.State
		if s.mon != nil {
			ms = ws.nextMS
			ms.CopyFrom(&ws.ms)
			s.mon.Step(ms, lang.Tid(t), label)
		} else {
			mem.Step(label)
		}
		var perm []uint8
		if s.red != nil && s.red.symm() && !s.red.canonPerm(ws.cur, ms, ws.perm) {
			if !revisit {
				ws.sym++
			}
			perm = ws.perm
			step.Perm = explore.PackPerm(perm)
			cz = permuteMask(cz, perm)
		}
		s.encode(ws, perm)
		ws.cur.Threads[t] = savedTS
		if s.mon == nil {
			mem[op.Loc] = savedVal
		}
		if s.sleep {
			b.AddSleep(ws.key, id, step, cz)
		} else {
			b.Add(ws.key, id, step, 0)
		}
	}
	return true
}

// report keeps f if it is the least finding so far.
func (s *search) report(f *finding) {
	s.mu.Lock()
	if s.found == nil || f.less(s.found) {
		f.key = bytes.Clone(f.key)
		s.found = f
	}
	s.mu.Unlock()
}

// counters returns the reduction counters summed over the workers.
func (s *search) counters() (ample, sleep, sym int64) {
	for _, ws := range s.ws {
		ample, sleep, sym = ample+ws.ample, sleep+ws.sleep, sym+ws.sym
	}
	return ample, sleep, sym
}

// witness returns the SC run to the search's finding, and the finding's
// violation or assertion failure. Under symmetry the run and the finding
// are recorded on the quotient; they come back concretized into the
// original program's thread names.
func (s *search) witness() ([]explore.Step, *scm.Violation, *prog.AssertFailure) {
	f := s.found
	trace := s.store.Trace(f.id)
	if f.fail != nil {
		trace = append(trace, f.step)
	}
	viol, fail := f.viol, f.fail
	if s.red != nil && s.red.symm() {
		sigma := explore.Concretize(trace, s.red.nT)
		if viol != nil {
			viol = concretizeViolation(viol, sigma)
		} else {
			af := *fail
			af.Tid = trace[len(trace)-1].Tid
			fail = &af
		}
	}
	return trace, viol, fail
}
