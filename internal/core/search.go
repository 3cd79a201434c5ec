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
// pending operations with their SC labels, the plain SC memory (without
// a monitor), a successor's key and its key under the symmetry
// permutation, the permutation and the reduction counters. Steady-state
// expansion allocates nothing.
type worker struct {
	cur, nxt          prog.State
	ops               []prog.MemOp
	labs              []lang.Label // the pending operations' SC labels
	en                []bool       // and whether each is enabled
	mem               memsc.Memory
	key, pkey         []byte
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
// the initial memory, and returns the finished search, whose store the
// caller releases (search.release): ErrBound when a level ends above
// Options.MaxStates, ErrCanceled when Options.Ctx is cancelled before the
// search ends, and then the store is released already.
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
	root, _ := s.store.Add(s.rootKey(ps0), -1, explore.Step{})
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
		s.release()
		return nil, canceled(opts.Ctx)
	}
	if !done {
		err := fmt.Errorf("%w (%d states)", explore.ErrBound, s.store.Len())
		s.release()
		return nil, err
	}
	return s, nil
}

// release hands the search's store on for reuse (explore.Sharded.Release)
// once its counts and witness are read; nothing the search reports
// aliases it, as a finding keeps a copy of its key.
func (s *search) release() {
	s.store.Release()
	s.store = nil
}

func (s *search) newWorker() *worker {
	n := len(s.p.Threads)
	ws := &worker{ops: make([]prog.MemOp, n), labs: make([]lang.Label, n), en: make([]bool, n), perm: make([]uint8, n)}
	ws.cur = prog.State{Threads: make([]prog.ThreadState, n)}
	ws.nxt = prog.State{Threads: make([]prog.ThreadState, n)}
	for i := range ws.cur.Threads {
		ws.cur.Threads[i].Regs = make([]lang.Val, s.program.Threads[i].NumRegs)
		ws.nxt.Threads[i].Regs = make([]lang.Val, s.program.Threads[i].NumRegs)
	}
	if s.mon == nil {
		ws.mem = memsc.New(s.program.NumLocs())
	}
	return ws
}

// rootKey returns the key of the program state ps0 with the initial memory.
func (s *search) rootKey(ps0 prog.State) []byte {
	key := s.p.EncodeState(nil, ps0)
	if s.mon == nil {
		return memsc.New(s.program.NumLocs()).Encode(key)
	}
	return s.mon.Encode(key, s.mon.Init())
}

// successor sets ws.key to the key of the successor by thread t's label
// of the state with key key, whose memory starts at key[n:], and whose
// thread t has stepped to ws.cur.Threads[t]: the parent's key with thread
// t's block re-encoded and the memory stepped in place. It points ms at
// the successor's monitor state in ws.key and returns it (nil for plain
// SC).
func (s *search) successor(ws *worker, ms *scm.State, key []byte, n, t int, label lang.Label) *scm.State {
	ws.key = append(ws.key[:0], key...)
	s.p.EncodeThreadAt(ws.key, t, ws.cur.Threads[t])
	if s.mon == nil {
		saved := ws.mem[label.Loc]
		ws.mem.Step(label)
		ws.key = ws.mem.Encode(ws.key[:n])
		ws.mem[label.Loc] = saved
		return nil
	}
	s.mon.View(ms, ws.key[n:])
	s.mon.Step(ms, lang.Tid(t), label)
	return ms
}

// permKey sets ws.pkey to the key of the successor in ws.cur and ws.key
// (monitor state ms) with its threads permuted by perm.
func (s *search) permKey(ws *worker, ms *scm.State, perm []uint8) []byte {
	ws.pkey = s.p.EncodeStatePerm(ws.pkey[:0], ws.cur, perm)
	if ms == nil {
		// The plain SC memory is not thread-indexed.
		return append(ws.pkey, ws.key[len(ws.pkey):]...)
	}
	ws.pkey = s.mon.EncodePerm(ws.pkey, ms, perm)
	return ws.pkey
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
	// The monitor states are views of keys: the current one of the
	// store's (read-only), a successor's of ws.key.
	var cur, next scm.State
	mem := ws.mem
	if s.mon != nil {
		s.mon.View(&cur, key[n:])
		mem = cur.M
	} else {
		mem.Decode(key[n:])
	}
	ops := ws.ops
	s.p.OpsInto(ops, ws.cur)
	if s.mon != nil && !revisit {
		if viol, rank := s.violation(&cur, ops); viol != nil {
			s.report(&finding{key: key, rank: rank, id: id, viol: viol})
		}
	}
	scLabels(ops, mem, s.program.ValCount, ws.labs, ws.en)
	ampleT, stepped := -1, false
	if s.red != nil {
		if ampleT, stepped = s.red.ample(ws.cur, ws.nxt, ops, ws.labs, ws.en); ampleT >= 0 && !revisit {
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
		if !ws.en[t] {
			continue // blocked wait/BCAS
		}
		label := ws.labs[t]
		step := explore.Step{Tid: lang.Tid(t), Lab: label}
		// The ample trial step left an ample thread's successor in
		// ws.nxt, unless the step fails an assertion.
		if t != ampleT || !stepped {
			if fail := s.p.Threads[t].ApplyInto(ws.cur.Threads[t], label, &ws.nxt.Threads[t]); fail != nil {
				s.report(&finding{key: key, rank: t, id: id, fail: fail, step: step})
				continue
			}
		}
		var cz uint64
		if s.sleep {
			cz = childSleep(ops, t, sleepZ|done)
		}
		done |= uint64(1) << t
		savedTS := ws.cur.Threads[t]
		ws.cur.Threads[t] = ws.nxt.Threads[t]
		ms := s.successor(ws, &next, key, n, t, label)
		succ := ws.key
		if s.red != nil && s.red.symm() && !s.red.canonPerm(ws.cur, ms, ws.perm) {
			if !revisit {
				ws.sym++
			}
			step.Perm = explore.PackPerm(ws.perm)
			cz = permuteMask(cz, ws.perm)
			succ = s.permKey(ws, ms, ws.perm)
		}
		ws.cur.Threads[t] = savedTS
		if s.sleep {
			b.AddSleep(succ, id, step, cz)
		} else {
			b.Add(succ, id, step, 0)
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
