// Command litmus explores a program under the operational memory
// subsystems directly — SC (§2.3), the RA timestamp machine (§3), and the
// x86-TSO store-buffer machine — and reports state robustness
// (Definition 2.6): whether the weak model reaches program states SC
// cannot. It is the cross-validation side of the repository (the verifier
// in cmd/rocker decides the stronger execution-graph robustness without
// ever running the weak machine).
//
// Usage:
//
//	litmus -model ra|tso [flags] file.lit
//	litmus -model ra -corpus SB
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/litmus"
	"repro/internal/model"
	"repro/internal/parser"
	"repro/internal/staterobust"
)

func main() {
	memModel := flag.String("model", "ra", "weak model to compare against SC: ra, sra or tso")
	maxStates := flag.Int("max", 4_000_000, "compound state bound")
	bufCap := flag.Int("bufcap", 8, "TSO store-buffer capacity")
	corpusName := flag.String("corpus", "", "explore a built-in corpus program")
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
		fmt.Fprintln(os.Stderr, "usage: litmus -model ra|tso [flags] file.lit")
		os.Exit(2)
	}

	mode, ok := map[string]string{"ra": model.ModeStateRA, "sra": model.ModeStateSRA, "tso": model.ModeStateTSO}[*memModel]
	if !ok {
		fatal(fmt.Errorf("unknown model %q", *memModel))
	}
	res, err := model.Check(mode, program, staterobust.Limits{MaxStates: *maxStates, TSOBufCap: *bufCap})
	if err != nil {
		fatal(err)
	}
	if res.Robust {
		fmt.Printf("%s: state ROBUST against %s (%d program states under both models; %d compound states explored)\n",
			program.Name, *memModel, res.WeakStates, res.Explored)
	} else {
		fmt.Printf("%s: NOT state robust against %s (SC reaches %d program states; witness run:)\n",
			program.Name, *memModel, res.SCStates)
		fmt.Print(core.FormatTrace(program, res.WitnessTrace))
		os.Exit(1)
	}
	if res.BufBoundHit {
		fmt.Println("note: the TSO buffer bound was hit; rerun with a larger -bufcap to certify the verdict")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "litmus:", err)
	os.Exit(2)
}
