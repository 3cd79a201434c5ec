package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/emit"
)

// runEmit implements "rocker emit": it compiles a program into a
// standalone Go verifier — the analogue of Rocker's Promela generation
// (§7): the original tool emitted an instrumented Spin model; this one
// emits an instrumented, specialized Go program that performs the same §5
// search when built and run:
//
//	rocker emit -corpus SB -o verifier.go && go run verifier.go
func runEmit(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("rocker emit", stderr, "rocker emit [-full] [-o file] file.lit | -corpus name")
	full := fs.Bool("full", false, "disable abstract value management (§5.1)")
	out := fs.String("o", "", "output file (default stdout)")
	corpusName := corpusFlag(fs)
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}
	program, err := loadProgram(fs, *corpusName)
	if err != nil {
		return fail(fs, err)
	}
	src, err := emit.Generate(program, emit.Options{AbstractVals: !*full})
	if err != nil {
		return fail(fs, err)
	}
	if *out == "" {
		fmt.Fprint(stdout, src)
		return 0
	}
	if err := os.WriteFile(*out, []byte(src), 0o644); err != nil {
		return fail(fs, err)
	}
	fmt.Fprintf(stderr, "rocker emit: wrote %s (%d bytes); run with: go run %s\n", *out, len(src), *out)
	return 0
}
