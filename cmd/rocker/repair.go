package main

import (
	"fmt"
	"io"

	"repro/internal/fence"
)

// runRepair implements "rocker repair": given a program that is not
// execution-graph robust against RA, it searches for a minimal set of SC
// fences (Example 3.6's FADDs on a distinguished shared location) or RMW
// strengthenings whose insertion makes the program robust, then
// re-verifies the strengthened program — the workflow the paper's
// introduction proposes.
func runRepair(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("rocker repair", stderr,
		"rocker repair [-maxrepairs N] [-strategy fences|rmws|mixed] [-print] file.lit | -corpus name")
	maxRepairs := fs.Int("maxrepairs", 4, "largest repair set to try")
	strategy := fs.String("strategy", "fences", "repair moves: fences, rmws or mixed")
	show := fs.Bool("print", true, "print the strengthened program")
	corpusName := corpusFlag(fs)
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}
	program, err := loadProgram(fs, *corpusName)
	if err != nil {
		return fail(fs, err)
	}
	strat, ok := map[string]fence.Strategy{"fences": fence.Fences, "rmws": fence.RMWs, "mixed": fence.Mixed}[*strategy]
	if !ok {
		return fail(fs, fmt.Errorf("unknown strategy %q", *strategy))
	}
	placements, fixed, err := fence.Enforce(program, fence.Options{MaxRepairs: *maxRepairs, Strategy: strat})
	if err != nil {
		return fail(fs, err)
	}
	if len(placements) == 0 {
		fmt.Fprintf(stdout, "%s is already robust against RA; no fences needed\n", program.Name)
		return 0
	}
	fmt.Fprintf(stdout, "%s: robust after %d repair(s):\n", program.Name, len(placements))
	for _, pl := range placements {
		th := &program.Threads[pl.Tid]
		verb := "fence before"
		if pl.Kind == fence.StrengthenWrite {
			verb = "strengthen"
		}
		fmt.Fprintf(stdout, "  %s: %s %q\n", th.Name, verb, program.FmtInst(th, &th.Insts[pl.At]))
	}
	if *show {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, fixed.String())
	}
	return 0
}
