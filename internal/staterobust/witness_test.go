package staterobust_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/staterobust"
)

// TestReplayWitness replays the RA and SRA witness of every non-robust
// corpus row through ReplayWitness, and checks that three forgeries of
// each are rejected: a read label whose value no message can carry, a
// write label on a read, and the witness without its last step, which
// ends in an SC-reachable state (the explorer stops at the first state
// whose projection is outside the SC set).
func TestReplayWitness(t *testing.T) {
	// The explorations stop at 20k states; a forged trace is refuted only
	// by exhausting every memory run up to its forged step, which takes
	// up to headroom^writes memory states, so the replays get more.
	lim := staterobust.Limits{MaxStates: 20_000, Workers: 1}
	replayLim := staterobust.Limits{MaxStates: 500_000, Workers: 1}
	replayed, forgedReads := 0, 0
	for _, e := range litmus.All() {
		if e.Big {
			continue
		}
		p := e.Program()
		for _, sra := range []bool{false, true} {
			check := staterobust.CheckRA
			if sra {
				check = staterobust.CheckSRA
			}
			res, err := check(p, lim)
			if errors.Is(err, explore.ErrBound) {
				continue
			}
			if err != nil {
				t.Fatalf("%s sra=%v: %v", e.Name, sra, err)
			}
			if res.Robust {
				continue
			}
			w := res.WitnessTrace
			if err := staterobust.ReplayWitness(p, w, sra, replayLim); err != nil {
				t.Errorf("%s sra=%v: witness does not replay: %v", e.Name, sra, err)
				continue
			}
			replayed++
			err = staterobust.ReplayWitness(p, w[:len(w)-1], sra, replayLim)
			if err == nil || !strings.Contains(err.Error(), "SC-reachable") {
				t.Errorf("%s sra=%v: witness without its last step: err = %v, want an SC-reachable end", e.Name, sra, err)
			}
			i := firstRead(w)
			if i < 0 {
				continue
			}
			forged := append([]explore.Step(nil), w...)
			forged[i].Lab = lang.WriteLab(forged[i].Lab.Loc, forged[i].Lab.VR)
			if err := staterobust.ReplayWitness(p, forged, sra, replayLim); !rejected(err) {
				t.Errorf("%s sra=%v: a write label on the read of step %d: err = %v, want a rejection", e.Name, sra, i, err)
			}
			if v, ok := unwritten(p, w, forged[i].Lab.Loc); ok {
				forged[i].Lab = lang.ReadLab(forged[i].Lab.Loc, v)
				if err := staterobust.ReplayWitness(p, forged, sra, replayLim); !rejected(err) {
					t.Errorf("%s sra=%v: a read of never-written value %d at step %d: err = %v, want a rejection", e.Name, sra, v, i, err)
				}
				forgedReads++
			}
		}
	}
	t.Logf("replayed %d witnesses, forged %d reads", replayed, forgedReads)
	if replayed < 20 || forgedReads < 10 {
		t.Errorf("replayed %d witnesses and forged %d reads; the corpus should give at least 20 and 10", replayed, forgedReads)
	}
}

// rejected reports whether a replay refused a trace, as opposed to
// accepting it or running out of budget.
func rejected(err error) bool { return err != nil && !errors.Is(err, explore.ErrBound) }

// firstRead returns the index of the first plain read step of a trace, or
// -1.
func firstRead(trace []explore.Step) int {
	for i, st := range trace {
		if st.Internal == explore.IntNone && st.Lab.Typ == lang.LRead {
			return i
		}
	}
	return -1
}

// unwritten returns a value of the program's domain that no message of x
// can carry in a run with the labels of trace: not the initial 0, and
// written to x by no step of the trace.
func unwritten(p *lang.Program, trace []explore.Step, x lang.Loc) (lang.Val, bool) {
	written := map[lang.Val]bool{0: true}
	for _, st := range trace {
		if st.Internal == explore.IntNone && st.Lab.Loc == x && st.Lab.Typ != lang.LRead {
			written[st.Lab.VW] = true
		}
	}
	for v := lang.Val(1); int(v) < p.ValCount; v++ {
		if !written[v] {
			return v, true
		}
	}
	return 0, false
}
