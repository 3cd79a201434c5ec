package parser_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/litmus"
	"repro/internal/parser"
	"repro/internal/prog"
)

// FuzzParse checks the .lit front end on arbitrary text: every input
// either parses or returns an error, never panics, and a program that
// parses survives a Format round trip — the listing reparses to a program
// with the same prog.CanonicalDigest. Seeded with the litmus corpus and
// examples/lit; `go test` runs the seeds only, `go test -fuzz` explores.
func FuzzParse(f *testing.F) {
	for _, e := range litmus.All() {
		f.Add(e.Source)
	}
	lits, err := filepath.Glob("../../examples/lit/*.lit")
	if err != nil || len(lits) == 0 {
		f.Fatalf("no examples/lit seeds: %v", err)
	}
	for _, name := range lits {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := parser.Parse(src)
		if err != nil {
			return
		}
		listing := parser.Format(p)
		q, err := parser.Parse(listing)
		if err != nil {
			t.Fatalf("Format's listing does not reparse: %v\n%s", err, listing)
		}
		if prog.CanonicalDigest(p) != prog.CanonicalDigest(q) {
			t.Fatalf("the reparsed listing changes the canonical digest:\n%s", listing)
		}
	})
}
