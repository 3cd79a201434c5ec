package staterobust

import (
	"repro/internal/explore"
	"repro/internal/lang"
	"repro/internal/prog"
)

// Outcome is one final (all threads terminated) program state, as the
// per-thread register files.
type Outcome struct {
	Regs [][]lang.Val
}

// FinalOutcomes explores the program to completion under the given model
// ("ra", "sra" or "sc") and returns the distinct final program states.
// Intended for terminating (litmus-style) programs; the exploration is
// bounded by lim. It collects the program states the checkers' explorers
// reach (ReachableSC, or the RA/SRA product without a monitor) and keeps
// those where every thread has terminated; with lim.Reduce they are
// canonical representatives under thread symmetry.
func FinalOutcomes(program *lang.Program, model string, lim Limits) ([]Outcome, error) {
	var (
		reach *explore.Set
		err   error
	)
	switch model {
	case "sc":
		reach, err = ReachableSC(program, lim)
	case "ra", "sra":
		_, reach, err = exploreRA(program, lim, model == "sra", nil)
	default:
		return nil, errUnknownModel(model)
	}
	if err != nil {
		return nil, err
	}
	p := prog.New(program)
	var out []Outcome
	st := p.InitStateRaw()
	reach.Range(func(key []byte) {
		p.DecodeState(key, st)
		if !p.AllTerminated(st) {
			return
		}
		o := Outcome{Regs: make([][]lang.Val, len(st.Threads))}
		for i := range st.Threads {
			o.Regs[i] = append([]lang.Val(nil), st.Threads[i].Regs...)
		}
		out = append(out, o)
	})
	return out, nil
}

type errUnknownModel string

func (e errUnknownModel) Error() string { return "staterobust: unknown model " + string(e) }
