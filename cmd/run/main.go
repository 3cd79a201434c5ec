// Command run simulates a single random execution of a program under a
// chosen memory model (sc, ra, sra or tso) and prints the interleaved
// trace with the final registers — a debugging companion to the
// exhaustive tools: where cmd/rocker proves, cmd/run shows one concrete
// run, weak-memory effects included.
//
// Usage:
//
//	run -model ra -seed 7 file.lit
//	run -model ra -corpus SB -tries 200    # hunt for a weak outcome
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/parser"
	"repro/internal/prog"
)

func main() {
	memModel := flag.String("model", "ra", "memory model: sc, ra, sra or tso")
	seed := flag.Int64("seed", 1, "scheduler seed")
	tries := flag.Int("tries", 1, "number of runs (distinct seeds from -seed up)")
	maxSteps := flag.Int("maxsteps", 10_000, "step budget per run")
	corpusName := flag.String("corpus", "", "run a built-in corpus program")
	flag.Parse()

	var program *lang.Program
	switch {
	case *corpusName != "":
		e, err := litmus.Get(*corpusName)
		if err != nil {
			fatal(err)
		}
		program = e.Program()
	case flag.NArg() == 1:
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		program, err = parser.Parse(string(src))
		if err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: run -model sc|ra|sra|tso [flags] file.lit")
		os.Exit(2)
	}

	newMachine, ok := machines[*memModel]
	if !ok {
		fatal(fmt.Errorf("unknown model %q", *memModel))
	}
	mm := newMachine(program)
	for i := 0; i < *tries; i++ {
		s := *seed + int64(i)
		verbose := *tries == 1
		if runOnce(program, mm, s, *maxSteps, verbose) && !verbose {
			fmt.Printf("seed %d: assertion failed — weak outcome found; replay with -seed %d -tries 1\n", s, s)
			os.Exit(1)
		}
	}
	if *tries > 1 {
		fmt.Printf("%d runs, no assertion failures\n", *tries)
	}
}

// machines are the memory models run can simulate.
var machines = map[string]func(*lang.Program) model.MemoryModel{
	"sc":  model.NewSC,
	"ra":  func(p *lang.Program) model.MemoryModel { return model.NewRA(p, 0) },
	"sra": func(p *lang.Program) model.MemoryModel { return model.NewSRA(p, 0) },
	"tso": func(p *lang.Program) model.MemoryModel { return model.NewTSO(p, 0) },
}

// runOnce simulates one run, picking uniformly among the enabled moves —
// a thread's local step, each transition the memory offers its pending
// operation (model.MemoryModel.Steps), and each memory-internal step
// (Internal); returns true if an assertion failed.
func runOnce(program *lang.Program, mm model.MemoryModel, seed int64, maxSteps int, verbose bool) bool {
	rng := rand.New(rand.NewSource(seed))
	p := prog.New(program)
	st := p.InitStateRaw()
	m := mm.Init()

	say := func(format string, args ...any) {
		if verbose {
			fmt.Printf(format+"\n", args...)
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
	if verbose {
		fmt.Println("final registers:")
		for t := range p.Threads {
			fmt.Printf("  %s:", program.Threads[t].Name)
			for r, v := range st.Threads[t].Regs {
				fmt.Printf(" %s=%d", program.Threads[t].RegNames[r], v)
			}
			fmt.Println()
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "run:", err)
	os.Exit(2)
}
