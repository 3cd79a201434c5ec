package model

import (
	"context"
	"errors"
	"slices"
	"sort"
	"testing"

	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/staterobust"
)

// TestTSOAttackCorpusParity is the acceptance gate for the instrumented
// checker: on every feasible corpus row, the attack-based CheckTSO must
// agree with the exhaustive TSO verdict (pinned in litmus.Entry.RobustTSO,
// which staterobust's TestTSOVerdicts asserts for mode state-tso on the
// same rows, and TestTSOAdapterParity pins state-tso to the oracle of
// tsooracle_test.go).
func TestTSOAttackCorpusParity(t *testing.T) {
	for _, e := range litmus.All() {
		if e.Big {
			continue
		}
		switch e.Name {
		case "rcu", "rcu-offline", "seqlock", "lamport2-ra":
			if testing.Short() {
				continue
			}
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			p := e.Program()
			res, err := CheckTSO(p, staterobust.Limits{MaxStates: 30_000_000, TSOBufCap: 4})
			if err != nil {
				t.Fatalf("CheckTSO: %v", err)
			}
			if res.Robust != e.RobustTSO {
				t.Fatalf("instrumented TSO verdict: robust=%v, exhaustive oracle says %v (explored %d, weak %d, sc %d)",
					res.Robust, e.RobustTSO, res.Explored, res.WeakStates, res.SCStates)
			}
		})
	}
}

// TestTSOAttackStateCounts compares the instrumented and exhaustive
// explorations head-to-head. On robust rows the lazy single-delayer
// state space is a subset of the full product's by construction, so the
// instrumented count can never exceed the exhaustive one there; the
// acceptance criterion of a strict win on at least 3 corpus rows holds
// comfortably (5 of these 8). Exact instrumented counts are pinned on
// three stable rows so a semantics change in the lazy machine cannot
// slip through as a silent count drift.
func TestTSOAttackStateCounts(t *testing.T) {
	pinned := map[string]int{
		"barrier":      54,
		"dekker-tso":   473,
		"peterson-tso": 764,
	}
	rows := []string{
		"barrier", "dekker-tso", "peterson-tso", "cilk-the-wsq-tso",
		"lamport2-tso", "spinlock", "ticketlock", "rcu-offline",
	}
	smaller := 0
	for _, name := range rows {
		e, err := litmus.Get(name)
		if err != nil {
			t.Fatalf("litmus.Get(%q): %v", name, err)
		}
		p := e.Program()
		lim := staterobust.Limits{MaxStates: 30_000_000, TSOBufCap: 4}
		inst, err := CheckTSO(p, lim)
		if err != nil {
			t.Fatalf("%s: instrumented: %v", name, err)
		}
		exh, err := oracleCheckTSO(p, lim)
		if err != nil {
			t.Fatalf("%s: exhaustive: %v", name, err)
		}
		if inst.Robust != exh.Robust {
			t.Errorf("%s: verdict mismatch: instrumented robust=%v exhaustive robust=%v", name, inst.Robust, exh.Robust)
		}
		if exh.Robust && inst.Explored > exh.Explored {
			t.Errorf("%s: instrumented explored %d states, exhaustive %d — the lazy machine must be a subset on robust rows",
				name, inst.Explored, exh.Explored)
		}
		if want, ok := pinned[name]; ok && inst.Explored != want {
			t.Errorf("%s: instrumented explored %d states, pinned %d", name, inst.Explored, want)
		}
		t.Logf("%-18s robust=%-5v instrumented=%d exhaustive=%d", name, inst.Robust, inst.Explored, exh.Explored)
		if inst.Explored < exh.Explored {
			smaller++
		}
	}
	if smaller < 3 {
		t.Errorf("instrumented exploration strictly smaller on only %d rows, want >= 3", smaller)
	}
}

// TestDelayerCandidates pins the static delayer filter: a thread with no
// store, or no plain load/wait, cannot profit from delaying.
func TestDelayerCandidates(t *testing.T) {
	chaseLev, err := litmus.Get("chase-lev-tso")
	if err != nil {
		t.Fatal(err)
	}
	// The Chase-Lev owner thread both pushes (stores) and takes (loads);
	// the thief side is RMW/read-only, so only thread 0 qualifies.
	if got := DelayerCandidates(chaseLev.Program()); len(got) != 1 || got[0] != 0 {
		t.Errorf("chase-lev-tso candidates = %v, want [0]", got)
	}
	barrier, err := litmus.Get("barrier")
	if err != nil {
		t.Fatal(err)
	}
	if got := DelayerCandidates(barrier.Program()); len(got) != 2 {
		t.Errorf("barrier candidates = %v, want both threads", got)
	}
}

// TestTSOWorkerIndependence pins the level-synchronous product of both
// TSO modes, the lazy single-delayer machine (tso) and the full one
// (state-tso, NewTSO): on every corpus row, non-robust ones included,
// everything Run reports — verdict, counts, witness length, buffer-bound
// flag, or the state bound itself — is the same at 1, 2 and 4 workers.
func TestTSOWorkerIndependence(t *testing.T) {
	for _, e := range litmus.All() {
		if e.Big {
			continue
		}
		switch e.Name {
		case "seqlock", "rcu":
			if testing.Short() {
				continue
			}
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			p := e.Program()
			for _, mode := range []string{ModeTSO, ModeStateTSO} {
				if mode == ModeStateTSO {
					switch e.Name {
					case "nbw-w-lr-rl":
						continue // the full product passes any affordable bound
					case "rcu-offline", "lamport2-ra":
						if testing.Short() {
							continue
						}
					}
				}
				var ref *RunResult
				var refErr error
				for _, w := range []int{1, 2, 4} {
					rr, err := Run(mode, p, RunOpts{MaxStates: 2_000_000, Reduce: true, Workers: w})
					if w == 1 {
						ref, refErr = rr, err
						continue
					}
					if (err == nil) != (refErr == nil) || (err != nil && !errors.Is(err, staterobust.ErrBound)) {
						t.Fatalf("%s workers=%d: err = %v, workers=1: %v", mode, w, err, refErr)
					}
					if err != nil {
						continue
					}
					if rr.Robust != ref.Robust || rr.States != ref.States || rr.SCStates != ref.SCStates ||
						rr.WeakStates != ref.WeakStates || len(rr.Trace) != len(ref.Trace) || rr.BufBoundHit != ref.BufBoundHit {
						t.Errorf("%s workers=%d: %+v, workers=1: %+v", mode, w, *rr, *ref)
					}
				}
			}
		})
	}
}

// TestTSONoDelayer pins the no-candidate path: a program in which no
// thread can delay is robust with no exploration at all — nbw-w-lr-rl,
// whose SC backbone alone exceeds 2M states, answers at once — and a
// cancelled context still yields ErrCanceled, never a verdict.
func TestTSONoDelayer(t *testing.T) {
	e, err := litmus.Get("nbw-w-lr-rl")
	if err != nil {
		t.Fatal(err)
	}
	p := e.Program()
	if c := DelayerCandidates(p); len(c) != 0 {
		t.Fatalf("nbw-w-lr-rl candidates = %v, want none", c)
	}
	res, err := CheckTSO(p, staterobust.Limits{MaxStates: 1})
	if err != nil {
		t.Fatalf("CheckTSO: %v", err)
	}
	if !res.Robust || res.Explored != 0 || res.SCStates != 0 || res.WeakStates != 0 {
		t.Errorf("CheckTSO = %+v, want robust with nothing explored", *res)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CheckTSO(p, staterobust.Limits{Ctx: ctx}); !errors.Is(err, staterobust.ErrCanceled) {
		t.Errorf("cancelled CheckTSO: err = %v, want ErrCanceled", err)
	}
}

// TestReplayTSOFig7 replays the witness of every non-robust Figure 7 row
// through the lazy machine, at one and two workers, and checks that a
// witness cut short of its violating state is rejected.
func TestReplayTSOFig7(t *testing.T) {
	n := 0
	for _, e := range litmus.Fig7() {
		if e.Big || e.RobustTSO {
			continue
		}
		n++
		p := e.Program()
		for _, w := range []int{1, 2} {
			lim := staterobust.Limits{MaxStates: 2_000_000, Reduce: true, Workers: w}
			res, err := CheckTSO(p, lim)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", e.Name, w, err)
			}
			if res.Robust || len(res.WitnessTrace) == 0 {
				t.Fatalf("%s workers=%d: no witness (robust=%v)", e.Name, w, res.Robust)
			}
			if err := ReplayTSO(p, res.WitnessTrace, lim); err != nil {
				t.Errorf("%s workers=%d: witness does not replay: %v", e.Name, w, err)
			}
			// The search stops on the first level holding a violation,
			// so the witness's prefix ends in an SC-reachable state.
			if err := ReplayTSO(p, res.WitnessTrace[:len(res.WitnessTrace)-1], lim); err == nil {
				t.Errorf("%s workers=%d: a witness without its last step replayed", e.Name, w)
			}
		}
	}
	if n != 7 {
		t.Errorf("replayed %d non-robust rows, want the 7 of Figure 7", n)
	}
}

// TestReplayTSORejectsInfeasible: a label the lazy machine cannot produce
// (reading a value never written) must fail the replay.
func TestReplayTSORejectsInfeasible(t *testing.T) {
	e, err := litmus.Get("dekker-sc")
	if err != nil {
		t.Fatal(err)
	}
	p := e.Program()
	lim := staterobust.Limits{MaxStates: 2_000_000, Workers: 1}
	res, err := CheckTSO(p, lim)
	if err != nil || res.Robust {
		t.Fatalf("CheckTSO = %v, %v", res, err)
	}
	trace := append([]explore.Step(nil), res.WitnessTrace...)
	for i := range trace {
		if trace[i].Internal == explore.IntNone && trace[i].Lab.Typ == lang.LRead {
			trace[i].Lab.VR = lang.Val(p.ValCount - 1 - int(trace[i].Lab.VR))
			break
		}
	}
	if err := ReplayTSO(p, trace, lim); err == nil {
		t.Error("a witness with a forged read value replayed")
	}
}

// TestTSOBoundExact pins where the state bound bites: the level-complete
// count is the bound's trigger, so a bound of exactly Explored answers,
// and one state fewer reports ErrBound, at every worker count.
func TestTSOBoundExact(t *testing.T) {
	for _, name := range []string{"ticketlock4", "rcu-offline", "chase-lev-tso"} {
		t.Run(name, func(t *testing.T) {
			e, err := litmus.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			p := e.Program()
			for _, w := range []int{1, 2, 4} {
				ref, err := Run(ModeTSO, p, RunOpts{MaxStates: 2_000_000, Reduce: true, Workers: w})
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				rr, err := Run(ModeTSO, p, RunOpts{MaxStates: ref.States, Reduce: true, Workers: w})
				if err != nil {
					t.Errorf("workers=%d: MaxStates=%d (Explored): %v", w, ref.States, err)
				} else if rr.Robust != ref.Robust || rr.States != ref.States {
					t.Errorf("workers=%d: MaxStates=%d: %+v, unbounded %+v", w, ref.States, *rr, *ref)
				}
				if _, err := Run(ModeTSO, p, RunOpts{MaxStates: ref.States - 1, Reduce: true, Workers: w}); !errors.Is(err, staterobust.ErrBound) {
					t.Errorf("workers=%d: MaxStates=%d (Explored-1): err = %v, want ErrBound", w, ref.States-1, err)
				}
			}
		})
	}
}

// TestReachableSCWorkerIndependence checks that the SC-reachable
// projection set is the same set of keys at 1, 2 and 4 workers, folded
// and unfolded.
func TestReachableSCWorkerIndependence(t *testing.T) {
	for _, name := range []string{"rcu-offline", "ticketlock4"} {
		e, err := litmus.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		p := e.Program()
		for _, reduce := range []bool{false, true} {
			var ref []string
			for _, w := range []int{1, 2, 4} {
				sc, err := staterobust.ReachableSC(p, staterobust.Limits{Workers: w, Reduce: reduce})
				if err != nil {
					t.Fatalf("%s reduce=%v workers=%d: %v", name, reduce, w, err)
				}
				var keys []string
				sc.Range(func(key []byte) { keys = append(keys, string(key)) })
				sort.Strings(keys)
				if len(keys) != sc.Len() {
					t.Errorf("%s reduce=%v workers=%d: Range gave %d keys, Len %d", name, reduce, w, len(keys), sc.Len())
				}
				if w == 1 {
					ref = keys
				} else if !slices.Equal(keys, ref) {
					t.Errorf("%s reduce=%v workers=%d: %d keys differ from the %d at workers=1", name, reduce, w, len(keys), len(ref))
				}
			}
		}
	}
}
