package frontend

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/diffcheck"
	"repro/internal/parser"
	"repro/internal/prog"
)

// The examples/go corpus, with pinned per-model verdicts. The golden
// .lit files committed next to the sources are regenerated with
//
//	go run ./cmd/rocker golint -q -norepair -models ra -emit examples/go/<dir> examples/go/<dir>
//
// and this test fails if translation output drifts from them.
var corpus = []struct {
	dir       string // directory under examples/go; also the unit name
	ra        bool
	sra       bool
	tso       *bool // nil: too expensive to pin here (see skip notes below)
	tsoSlow   bool  // only check tso without -short
	witnesses []int // pinned "not robust" witness lines (ra leg)
	repairs   []int // pinned fence-repair suggestion lines
}{
	{dir: "chaselev", ra: false, sra: false, tso: pb(false),
		witnesses: []int{29}, repairs: []int{29, 51}},
	{dir: "dcl", ra: true, sra: true, tso: pb(true)},
	{dir: "dekker", ra: false, sra: false, tso: pb(false),
		witnesses: []int{20}, repairs: []int{20, 27}},
	{dir: "rcu", ra: true, sra: true, tso: pb(true), tsoSlow: true},
	// seqlock is TSO-robust, but the attack-based checker needs ~30M
	// states (~2 min); pin it manually with
	// `rocker golint -models tso -max 30000000 examples/go/seqlock`.
	{dir: "seqlock", ra: true, sra: true},
	{dir: "spsc", ra: true, sra: true, tso: pb(true)},
	{dir: "ticketlock", ra: true, sra: true, tso: pb(true)},
}

func pb(b bool) *bool { return &b }

func corpusDir(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join("..", "..", "examples", "go", dir)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("corpus dir missing: %v", err)
	}
	return path
}

func translateCorpus(t *testing.T, dir string) *Unit {
	t.Helper()
	path := corpusDir(t, dir)
	files, err := filepath.Glob(filepath.Join(path, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files in %s: %v", path, err)
	}
	pkg, err := TranslateFiles(files)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	for _, d := range pkg.Declined {
		t.Errorf("unexpected decline: %v", d)
	}
	if len(pkg.Units) != 1 {
		t.Fatalf("got %d units, want 1", len(pkg.Units))
	}
	return pkg.Units[0]
}

func TestCorpusVerdicts(t *testing.T) {
	for _, tc := range corpus {
		t.Run(tc.dir, func(t *testing.T) {
			u := translateCorpus(t, tc.dir)
			if u.Name != tc.dir {
				t.Errorf("unit name = %q, want %q (name the driver after the example)", u.Name, tc.dir)
			}

			models := []string{"ra", "sra"}
			if tc.tso != nil && (!tc.tsoSlow || !testing.Short()) {
				models = append(models, "tso")
			}
			rep, err := LintUnit(u, LintOptions{
				Models:    models,
				MaxStates: 30_000_000,
				Workers:   1, // the witness is the same at every worker count
			})
			if err != nil {
				t.Fatalf("lint: %v", err)
			}
			if rep.Verdicts["ra"] != tc.ra {
				t.Errorf("ra verdict = %v, want %v", rep.Verdicts["ra"], tc.ra)
			}
			if rep.Verdicts["sra"] != tc.sra {
				t.Errorf("sra verdict = %v, want %v", rep.Verdicts["sra"], tc.sra)
			}
			if len(models) == 3 && rep.Verdicts["tso"] != *tc.tso {
				t.Errorf("tso verdict = %v, want %v", rep.Verdicts["tso"], *tc.tso)
			}

			// Every finding must carry a real position in the example's file.
			base := filepath.Base(u.File)
			var witnesses, repairs []int
			for _, f := range rep.Findings {
				if filepath.Base(f.Pos.Filename) != base || f.Pos.Line == 0 {
					t.Errorf("finding not anchored in %s: %v", base, f)
				}
				if strings.Contains(f.Message, "witness:") {
					witnesses = append(witnesses, f.Pos.Line)
				}
				if strings.Contains(f.Message, "suggested fix:") {
					repairs = append(repairs, f.Pos.Line)
				}
			}
			if tc.ra {
				for _, f := range rep.Findings {
					if f.Severity == "error" {
						t.Errorf("robust example has an error finding: %v", f)
					}
				}
			}
			if got, want := dedupSorted(witnesses), tc.witnesses; !equalInts(got, want) {
				t.Errorf("witness lines = %v, want %v", got, want)
			}
			if got, want := dedupSorted(repairs), tc.repairs; !equalInts(got, want) {
				t.Errorf("repair lines = %v, want %v", got, want)
			}
		})
	}
}

// TestCorpusGolden pins the committed .lit listings: translation output
// must match the goldens byte for byte, and the goldens must reparse to
// the very same program (same canonical digest).
func TestCorpusGolden(t *testing.T) {
	for _, tc := range corpus {
		t.Run(tc.dir, func(t *testing.T) {
			u := translateCorpus(t, tc.dir)
			goldenPath := filepath.Join(corpusDir(t, tc.dir), tc.dir+".lit")
			golden, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("golden missing (regenerate with rocker golint -emit): %v", err)
			}
			listing := EmitLit(u)
			if listing != string(golden) {
				t.Errorf("translation drifted from %s; regenerate with rocker golint -emit", goldenPath)
			}
			reparsed, err := parser.Parse(string(golden))
			if err != nil {
				t.Fatalf("golden does not reparse: %v", err)
			}
			if prog.CanonicalDigest(reparsed) != prog.CanonicalDigest(u.Prog) {
				t.Errorf("golden reparses to a different program than the translation")
			}
		})
	}
}

// TestCorpusDiffcheck runs every translated example through the
// differential battery: all verdict routes (seq/par, prune, reduce,
// RA/TSO machines where the bounds allow) must agree on the corpus.
func TestCorpusDiffcheck(t *testing.T) {
	for _, tc := range corpus {
		t.Run(tc.dir, func(t *testing.T) {
			u := translateCorpus(t, tc.dir)
			rep := diffcheck.CheckProgram(u.Prog, diffcheck.Config{})
			for _, f := range rep.Findings {
				t.Errorf("route disagreement: %v", f)
			}
			t.Logf("verdict=%s skipped=%v", rep.Verdict, rep.Skipped)
		})
	}
}

func dedupSorted(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
