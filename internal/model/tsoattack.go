package model

import (
	"fmt"

	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/prog"
	"repro/internal/staterobust"
)

// CheckTSO decides state robustness against x86-TSO with a polynomial
// attack-based instrumentation, following the shape of "Checking
// Robustness against TSO" (Bouajjani–Derevenetc–Meyer): instead of
// exploring the product with every store buffer live — whose state space
// grows exponentially with the number of concurrently buffering threads
// — it runs one reachability query over the *lazy single-delayer*
// machine (NewTSOLazy), in which at most one buffer is ever non-empty:
// an attack is the nondeterministic choice, made at any point where all
// buffers are drained, of one candidate thread that starts delaying its
// stores while everyone else writes through. The program is non-robust
// iff the query reaches a program state outside the SC-reachable set.
//
// Soundness is immediate: every run of the lazy machine is a genuine TSO
// run (write-through is a store immediately followed by its flush), so a
// non-SC state found here is TSO-reachable. Completeness is the locality
// argument of "Locality and Singularity for Store-Atomic Memory Models"
// (PAPERS.md): a minimal robustness violation under a store-atomic model
// needs only one thread deviating from SC at a time — the delayed writes
// of any second thread can be committed eagerly without losing the
// violating state. The exhaustive product, mode state-tso (CheckState
// with NewTSO), is the cross-check: the Figure-7 corpus parity test and
// the diffcheck fuzz leg compare the two checkers on every row and on
// generated programs, and state-tso itself is pinned to an independent
// sequential explorer kept as a test oracle (tsooracle_test.go).
//
// The state space is a subset of the exhaustive product's by
// construction (every lazy state is a full-product state whose
// non-delaying buffers are empty), so Explored never exceeds the
// exhaustive checker's count and is strictly smaller whenever full TSO
// reaches a state with two live buffers. DelayerCandidates shrinks it
// further by never letting a thread that could not possibly profit from
// delaying open an episode.
//
// Every attack opens from an SC-reachable state with all buffers drained,
// so the lazy product contains the SC backbone: CheckState explores it
// once, as the product's quiescent states (pass 1), then resumes on the
// attacks' first buffered stores (pass 2), with no separate
// staterobust.ReachableSC run. Both passes are level-synchronous parallel
// explorations of one store on lim.Workers workers, so every count this
// returns, and the length of its witness, is independent of the worker
// count even on non-robust programs. With lim.Reduce both passes fold
// their compound states under thread symmetry: the lazy machine is
// symmetric because DelayerCandidates is syntactic, so interchangeable
// threads are candidates alike, and a buffer moves with its thread. Only
// Explored drops; every other count and the witness length are
// unchanged.
//
// When no thread is a delayer candidate the lazy machine is the SC
// machine, so the program is robust with no exploration at all:
// Explored, SCStates and WeakStates are all 0.
func CheckTSO(program *lang.Program, lim staterobust.Limits) (*staterobust.Result, error) {
	cands := DelayerCandidates(program)
	if len(cands) > 0 {
		return CheckState(program, NewTSOLazy(program, lim.TSOBufCap, cands), lim)
	}
	if err := lim.Err(); err != nil {
		return nil, err
	}
	return &staterobust.Result{Robust: true}, nil
}

// DelayerCandidates returns the threads worth letting open a delay
// episode: those containing at least one store and at least one plain
// load or wait. A thread with no store has nothing to delay; a thread
// with no plain load between a delayed store and its flush cannot
// observe its own delay, so the store commutes forward to its flush
// point (every intermediate action is thread-local or belongs to a
// thread that cannot see the buffered value, and the thread's own RMWs —
// which do read — require an empty buffer, closing the episode first),
// yielding an SC run through the same program states. The filter is a
// static superset of the useful delayers; shrinking it further — e.g.
// demanding a load *reachable after* a store in the thread's control
// flow — would stay sound but buys little on the corpus.
func DelayerCandidates(program *lang.Program) []lang.Tid {
	var out []lang.Tid
	for ti := range program.Threads {
		var store, load bool
		for ii := range program.Threads[ti].Insts {
			switch program.Threads[ti].Insts[ii].Kind {
			case lang.IWrite:
				store = true
			case lang.IRead, lang.IWait:
				load = true
			}
		}
		if store && load {
			out = append(out, lang.Tid(ti))
		}
	}
	return out
}

// ReplayTSO validates a WitnessTrace returned by CheckTSO: the trace must
// be a run of the same lazy single-delayer machine — every step enabled,
// every memory step with the recorded label, every flush on a non-empty
// buffer — and the program state it ends in must not be SC-reachable.
// Returns nil when the witness checks out, and ErrBound if the SC
// exploration needed for the final check exceeds lim. Unlike the RA
// machine (staterobust.ReplayWitness), the lazy machine is
// label-deterministic, so the replay follows a single memory state.
func ReplayTSO(program *lang.Program, trace []explore.Step, lim staterobust.Limits) error {
	sc, err := staterobust.ReachableSC(program, lim)
	if err != nil {
		return err
	}
	p := prog.New(program)
	mm := NewTSOLazy(program, lim.TSOBufCap, DelayerCandidates(program))
	ps := p.InitStateRaw()
	m := mm.Init()
	var succs []Succ
	for i, st := range trace {
		t := int(st.Tid)
		if t >= len(p.Threads) {
			return fmt.Errorf("step %d: thread %d out of range", i, t)
		}
		th := &p.Threads[t]
		ts := ps.Threads[t]
		switch st.Internal {
		case explore.IntFlush:
			if succs = mm.Internal(succs[:0], m, st.Tid); len(succs) == 0 {
				return fmt.Errorf("step %d: flush of thread %d's empty buffer", i, t)
			}
			m = succs[0].M.Clone()
		case explore.IntEps:
			if !th.AtEps(ts) {
				return fmt.Errorf("step %d: ε step but thread %d is not at a local instruction", i, t)
			}
			next, afail := th.StepEps(ts)
			if afail != nil {
				return fmt.Errorf("step %d: ε step fails an assertion (such states have no successors)", i)
			}
			ps.Threads[t] = next
		case explore.IntNone:
			if th.Terminated(ts) || th.AtEps(ts) {
				return fmt.Errorf("step %d: memory step but thread %d has no memory operation pending", i, t)
			}
			succs = mm.Steps(succs[:0], m, st.Tid, th.Op(ts))
			var next State
			for _, s := range succs {
				if s.Lab == st.Lab {
					next = s.M.Clone()
				}
			}
			if next == nil {
				return fmt.Errorf("step %d: the lazy TSO machine cannot perform %v on thread %d", i, st.Lab, t)
			}
			ps.Threads[t] = th.ApplyRaw(ts, st.Lab)
			m = next
		default:
			return fmt.Errorf("step %d: unexpected internal tag %d in a TSO trace", i, st.Internal)
		}
	}
	if sc.Has(staterobust.NewProjector(p, lim).Key(p.EncodeStateRaw(nil, ps))) {
		return fmt.Errorf("final program state is SC-reachable — not a robustness witness")
	}
	return nil
}
