// Package staterobust implements state robustness (Definition 2.6) checks
// by direct exploration of operational memory subsystems: it enumerates the
// program states reachable under SC (ReachableSC) and under RA and SRA
// (the §3 timestamp machine with canonicalized timestamps, driven through
// memra.Machine), and compares the resulting sets. It also holds the
// vocabulary every state checker shares: Limits, Result and Projector.
// The TSO checks — mode state-tso, this repository's stand-in for the
// Trencher column of the paper's Figure 7 (see DESIGN.md), and the
// instrumented mode tso — run on internal/model's CheckState.
//
// The RA comparison cross-validates the paper's main theorems on small
// programs: by Proposition 4.10, execution-graph robustness implies state
// robustness, so core.Verify saying "robust" must imply the RA machine
// reaches no extra program states; and for the litmus tests the paper
// discusses, the specific stale-value outcomes must be reachable under RA
// and not under SC.
package staterobust

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/prog"
)

// Limits bounds an exploration.
type Limits struct {
	// MaxStates bounds the number of distinct compound states; 0 means
	// 4 million.
	MaxStates int
	// TSOBufCap bounds each TSO store buffer; 0 means 8 entries.
	TSOBufCap int
	// RAHeadroom is the number of free timestamp slots offered above the
	// maximal one for RA writes; 0 derives it from the program (number of
	// write instructions + 2), which is exact for programs whose loops do
	// not grow the write count beyond it (see memra's package comment).
	RAHeadroom int
	// Workers sets the number of parallel exploration workers of the
	// level-synchronous state checkers — ReachableSC (so also CheckRA and
	// CheckSRA's SC side) and model.CheckState, which answers both TSO
	// modes and explores their SC backbone inside its product: 0 uses
	// GOMAXPROCS, 1 explores sequentially. CheckRA and CheckSRA explore
	// their weak products on one goroutine whatever it says. Everything
	// the checkers report — verdicts, state counts, witnesses, and
	// whether a run that nears MaxStates reports ErrBound — is
	// worker-count-independent.
	Workers int
	// Ctx, when non-nil, cancels the exploration cooperatively (polled
	// every few hundred expansions at most): a cancelled run returns
	// ErrCanceled, never a partial verdict.
	Ctx context.Context
	// Progress, when non-nil, is called every few thousand explored
	// compound states with the running count. It may be invoked from
	// worker goroutines concurrently and must be cheap and goroutine-safe.
	Progress func(explored int)
	// Reduce folds states related by thread symmetry (permutations of
	// byte-identical threads, prog.SymClasses). The projection sets are
	// folded before the SC and weak reachable sets are compared: the
	// verdict is unchanged — both sets are closed under the same
	// permutations — but SCStates and WeakStates then count canonical
	// representatives, not raw program states. The compound states of
	// ReachableSC and of model.CheckState's product with a symmetric
	// machine (SC, the full TSO machine of state-tso and the lazy
	// single-delayer TSO of tso, whose products hold their own SC
	// backbone) are folded too, which changes nothing but Explored and
	// the run time. The weak products of CheckRA and CheckSRA stay
	// unfolded.
	Reduce bool
}

// symmetry returns the program's thread symmetry when Reduce is on and at
// least two threads are interchangeable, else nil.
func (l Limits) symmetry(p *prog.P) *prog.Symmetry {
	if !l.Reduce {
		return nil
	}
	return prog.NewSymmetry(p)
}

// StateBound returns the state bound MaxStates stands for.
func (l Limits) StateBound() int {
	if l.MaxStates <= 0 {
		return 4_000_000
	}
	return l.MaxStates
}

// WorkerCount returns the number of exploration workers Workers stands
// for.
func (l Limits) WorkerCount() int {
	if l.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return l.Workers
}

// Err returns ErrCanceled, wrapping the context's cause, once Ctx has
// been cancelled, and nil before. Checkers call it after every
// exploration, so a cancelled run never returns a verdict.
func (l Limits) Err() error {
	if l.Ctx == nil || l.Ctx.Err() == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", explore.ErrCanceled, context.Cause(l.Ctx))
}

// RunOpts returns explore.RunLevels' options for these limits: the
// context, and Progress reporting explored() every progressEvery
// expansions.
func (l Limits) RunOpts(explored func() int) explore.RunOpts {
	ro := explore.RunOpts{Ctx: l.Ctx, ProgressEvery: progressEvery}
	if l.Progress != nil {
		ro.Progress = func(int64) { l.Progress(explored()) }
	}
	return ro
}

// ErrBound is explore.ErrBound, returned when an exploration exceeds its
// state bound.
var ErrBound = explore.ErrBound

// ErrCanceled is explore.ErrCanceled, returned (wrapped, with the
// context's cause) when Limits.Ctx is cancelled before the exploration
// completes.
var ErrCanceled = explore.ErrCanceled

// progressEvery is the explored-state granularity of Limits.Progress.
const progressEvery = 4096

// Result is the outcome of a state-robustness comparison.
type Result struct {
	// Robust reports that every program state reachable under the weak
	// model is reachable under SC.
	Robust bool
	// WitnessTrace is a weak-memory run reaching a program state that SC
	// cannot reach (when not robust).
	WitnessTrace []explore.Step
	// SCStates and WeakStates count distinct *program* states (not
	// compound states) reached under each model; with Limits.Reduce they
	// count canonical representatives under thread symmetry instead.
	// Both are 0 when model.CheckTSO finds no thread that can delay and
	// so explores nothing.
	SCStates, WeakStates int
	// Explored counts compound states explored under the weak model; with
	// Limits.Reduce, the folded ones where the explorer folds symmetry.
	Explored int
	// BufBoundHit reports that a TSO write was ever inhibited by the
	// buffer capacity; if false, the bound provably did not limit the
	// exploration.
	BufBoundHit bool
}

// Projector maps state keys to program-state projection keys: the raw
// program-state prefix of a compound key (EncodeStateRaw comes first in
// every checker's encoding), folded under thread symmetry when
// Limits.Reduce is set. It owns scratch, so each worker needs its own.
type Projector struct {
	sy  *prog.Symmetry
	n   int
	buf []byte
}

// NewProjector returns a projector for p under lim.
func NewProjector(p *prog.P, lim Limits) *Projector {
	return &Projector{sy: lim.symmetry(p), n: len(p.EncodeStateRaw(nil, p.InitStateRaw()))}
}

// Len returns the length of the program-state prefix.
func (pj *Projector) Len() int { return pj.n }

// Key returns the projection key of a compound key or of a bare raw
// program-state encoding. The result is valid until the next call and
// may alias key.
func (pj *Projector) Key(key []byte) []byte {
	if pj.sy == nil {
		return key[:pj.n]
	}
	pj.buf = append(pj.buf[:0], key[:pj.n]...)
	return pj.sy.CanonRaw(pj.buf)
}

// ReachableSC returns the set of program-state projection keys
// (Projector.Key) reachable under SC (Definition 2.5 with M = SC),
// exploring the product with the SC memory.
//
// The exploration is ε-granular: thread-local instructions are interleaved
// transitions of their own, exactly as in §2.2, so partially-closed states
// (a thread stopped between its read and the branch consuming it) are
// enumerated. State robustness is sensitive to them — the paper's §2.3
// barrier discussion hinges on a state where both threads hold stale
// zeroes on their loop branches.
//
// It runs on explore.RunLevels with lim.Workers workers: a level's
// successors are committed into the visited set after its expansion, and
// the projections of the new ones into the returned set after that, both
// grouped by shard; the visited set's commit stops at most one shard per
// worker past the state bound. The visited set carries no trace links and
// the frontier only ids: each state is decoded from its key, the raw program
// state followed by one byte per location of SC memory. With lim.Reduce
// the program-state prefix of every key is canonicalized under thread
// symmetry before interning: SC memory is indexed by location, so
// permuting interchangeable threads is an automorphism of the product,
// and one state per orbit reaches the same projection set. The returned
// set is safe for concurrent Has calls, so the weak explorations probe it
// from all their workers.
func ReachableSC(program *lang.Program, lim Limits) (*explore.Set, error) {
	p := prog.New(program)
	seen, reach := explore.NewSet(), explore.NewSet()
	defer seen.Release()
	type worker struct {
		pj                *Projector
		cur, key, nextMem []byte
		ps, nxt           prog.State
	}
	ws := make([]*worker, lim.WorkerCount())
	for w := range ws {
		ws[w] = &worker{pj: NewProjector(p, lim), ps: p.InitStateRaw(), nxt: p.InitStateRaw()}
	}
	n := ws[0].pj.Len()
	// encode encodes the state in wk.nxt (with memory mem) into wk.key,
	// folded to its orbit's representative. The folded prefix is the
	// state's projection key.
	encode := func(wk *worker, mem []byte) []byte {
		wk.key = append(p.EncodeStateRaw(wk.key[:0], wk.nxt), mem...)
		if wk.pj.sy != nil {
			wk.pj.sy.CanonRaw(wk.key[:n])
		}
		return wk.key
	}
	// project files the projection of a new state.
	project := func(w int, id int64, key []byte, tag uint8, next *explore.Batch) {
		next.Add(key[:n], id, explore.Step{}, 0)
	}
	expand := func(w int, id int64, b *explore.Batch) bool {
		wk := ws[w]
		wk.cur = append(wk.cur[:0], seen.Key(id)...)
		p.DecodeState(wk.cur, wk.ps)
		p.DecodeState(wk.cur, wk.nxt)
		mem := wk.cur[n:]
		for t := range p.Threads {
			th := &p.Threads[t]
			ts := wk.ps.Threads[t]
			switch {
			case th.Terminated(ts):
				continue
			case th.AtEps(ts):
				if th.StepEpsInto(ts, &wk.nxt.Threads[t]) != nil {
					break // a failed assert has no successors
				}
				b.Add(encode(wk, mem), id, explore.Step{}, 0)
			default:
				op := th.Op(ts)
				label, enabled := prog.SCLabel(op, lang.Val(mem[op.Loc]), program.ValCount)
				if !enabled {
					continue
				}
				th.ApplyRawInto(ts, label, &wk.nxt.Threads[t])
				wk.nextMem = append(wk.nextMem[:0], mem...)
				if label.Typ != lang.LRead {
					wk.nextMem[label.Loc] = byte(label.VW)
				}
				b.Add(encode(wk, wk.nextMem), id, explore.Step{}, 0)
			}
			wk.nxt.Threads[t].PC = ts.PC
			copy(wk.nxt.Threads[t].Regs, ts.Regs)
		}
		return true
	}
	key := encode(ws[0], make([]byte, program.NumLocs()))
	root, _ := seen.Add(key)
	reach.Add(key[:n])
	commits := []explore.Commit{{Into: seen, On: project, Limit: lim.StateBound()}, {Into: reach}}
	explore.RunLevels(len(ws), [][]int64{{root}}, expand, commits, nil, lim.RunOpts(seen.Len))
	if err := lim.Err(); err != nil {
		reach.Release()
		return nil, err
	}
	if seen.Len() > lim.StateBound() {
		reach.Release()
		return nil, explore.ErrBound
	}
	return reach, nil
}
