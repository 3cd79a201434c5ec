package main

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/lang"
	"repro/internal/model"
	"repro/internal/prog"
)

// runSimulate implements "rocker simulate": it runs a program once under
// a chosen memory model (sc, ra, sra or tso) with a seeded random
// scheduler and prints the interleaved trace with the final registers —
// a debugging companion to the exhaustive tools: where rocker proves,
// simulate shows one concrete run, weak-memory effects included. With
// -tries N it instead hunts N seeds for a failing assertion:
//
//	rocker simulate -model ra -seed 7 file.lit
//	rocker simulate -model ra -corpus SB -tries 200
func runSimulate(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("rocker simulate", stderr,
		"rocker simulate [-model sc|ra|sra|tso] [-seed S] [-tries N] [-maxsteps N] file.lit | -corpus name")
	memModel := fs.String("model", "ra", "memory model: sc, ra, sra or tso")
	seed := fs.Int64("seed", 1, "scheduler seed")
	tries := fs.Int("tries", 1, "number of runs (distinct seeds from -seed up)")
	maxSteps := fs.Int("maxsteps", 10_000, "step budget per run")
	corpusName := corpusFlag(fs)
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}
	program, err := loadProgram(fs, *corpusName)
	if err != nil {
		return fail(fs, err)
	}
	newMachine, ok := machines[*memModel]
	if !ok {
		return fail(fs, fmt.Errorf("unknown model %q", *memModel))
	}
	mm := newMachine(program)
	var trace io.Writer // one run prints its trace; a hunt prints only its find
	if *tries == 1 {
		trace = stdout
	}
	for i := 0; i < *tries; i++ {
		s := *seed + int64(i)
		if simulateOnce(trace, program, mm, s, *maxSteps) && trace == nil {
			fmt.Fprintf(stdout, "seed %d: assertion failed — weak outcome found; replay with -seed %d -tries 1\n", s, s)
			return 1
		}
	}
	if *tries > 1 {
		fmt.Fprintf(stdout, "%d runs, no assertion failures\n", *tries)
	}
	return 0
}

// machines are the memory models simulate can run.
var machines = map[string]func(*lang.Program) model.MemoryModel{
	"sc":  model.NewSC,
	"ra":  func(p *lang.Program) model.MemoryModel { return model.NewRA(p, 0) },
	"sra": func(p *lang.Program) model.MemoryModel { return model.NewSRA(p, 0) },
	"tso": func(p *lang.Program) model.MemoryModel { return model.NewTSO(p, 0) },
}

// simulateOnce simulates one run, picking uniformly among the enabled
// moves — a thread's local step, each transition the memory offers its
// pending operation (model.MemoryModel.Steps), and each memory-internal
// step (Internal) — and prints the run to w unless w is nil. It returns
// true if an assertion failed.
func simulateOnce(w io.Writer, program *lang.Program, mm model.MemoryModel, seed int64, maxSteps int) bool {
	rng := rand.New(rand.NewSource(seed))
	p := prog.New(program)
	st := p.InitStateRaw()
	m := mm.Init()

	say := func(format string, args ...any) {
		if w != nil {
			fmt.Fprintf(w, format+"\n", args...)
		}
	}
	// A move is a thread's local step (succ.M nil), a labelled memory
	// step, or an internal one (flush).
	type move struct {
		t        int
		succ     model.Succ
		internal bool
	}
	var moves []move
	var succs []model.Succ
	for step := 0; step < maxSteps; step++ {
		moves = moves[:0]
		for t := range p.Threads {
			th := &p.Threads[t]
			ts := st.Threads[t]
			switch {
			case th.Terminated(ts):
			case th.AtEps(ts):
				moves = append(moves, move{t: t})
			default:
				succs = mm.Steps(succs[:0], m, lang.Tid(t), th.Op(ts))
				for _, s := range succs {
					moves = append(moves, move{t: t, succ: model.Succ{M: s.M.Clone(), Lab: s.Lab}})
				}
			}
			succs = mm.Internal(succs[:0], m, lang.Tid(t))
			for _, s := range succs {
				moves = append(moves, move{t: t, succ: model.Succ{M: s.M.Clone()}, internal: true})
			}
		}
		if len(moves) == 0 {
			break // all terminated or blocked
		}
		mv := moves[rng.Intn(len(moves))]
		name := program.Threads[mv.t].Name
		th := &p.Threads[mv.t]
		ts := st.Threads[mv.t]
		switch {
		case mv.internal:
			say("%3d: %s: (flush)", step, name)
		case mv.succ.M == nil:
			next, afail := th.StepEps(ts)
			if afail != nil {
				say("%3d: %s: ASSERTION FAILED at pc %d", step, name, afail.PC)
				return true
			}
			st.Threads[mv.t] = next
			continue
		default:
			st.Threads[mv.t] = th.ApplyRaw(ts, mv.succ.Lab)
			say("%3d: %s: %s", step, name, program.FmtLabel(mv.succ.Lab))
		}
		m = mv.succ.M
		mm.Canon(m)
	}
	if w != nil {
		fmt.Fprintln(w, "final registers:")
		for t := range p.Threads {
			fmt.Fprintf(w, "  %s:", program.Threads[t].Name)
			for r, v := range st.Threads[t].Regs {
				fmt.Fprintf(w, " %s=%d", program.Threads[t].RegNames[r], v)
			}
			fmt.Fprintln(w)
		}
	}
	return false
}
