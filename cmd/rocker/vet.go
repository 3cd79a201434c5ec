package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/parser"
)

// runVet implements "rocker vet file.lit...": parse each file leniently
// (so out-of-range constants are reported with positions instead of
// rejected wholesale) and run the internal/analysis lints. Findings print
// as file:line:col: message, one per line; the exit status is 1 when any
// file has findings, 2 on I/O or parse errors, 0 when everything is
// clean.
func runVet(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("rocker vet", stderr, "rocker vet [-q] file.lit...")
	quiet := fs.Bool("q", false, "suppress the per-file ok lines")
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	status := 0
	for _, name := range fs.Args() {
		src, err := os.ReadFile(name)
		if err != nil {
			return fail(fs, err)
		}
		p, err := parser.ParseLenient(string(src))
		if err != nil {
			// Parser errors already carry line:col.
			fmt.Fprintf(stdout, "%s:%v\n", name, err)
			status = 2
			continue
		}
		findings := analysis.Vet(p)
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s\n", name, f.Line, f.Col, f.Msg)
		}
		if len(findings) > 0 {
			if status == 0 {
				status = 1
			}
		} else if !*quiet {
			fmt.Fprintf(stdout, "%s: ok\n", name)
		}
	}
	return status
}
