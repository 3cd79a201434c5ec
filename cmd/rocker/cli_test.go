package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/litmus"
)

// The goldens in testdata/ hold the stdout and exit status of the
// command named on their first line ("$ command"), as printed by the
// standalone binaries this CLI replaces (fig7, sweep, litmus, fencer,
// run, emit) and by rocker before the fold, run from this directory.
// Each case runs the new command line in-process and must reproduce its
// golden. stray-operand, repair-stray-operands and all-stray-operand
// record the fixed behaviour: an operand next to -corpus or -all is a
// usage error. The all-* cases pin -all's flags: -max, -prune and
// -hashcompact reach every row (a row over -max prints a bound line and
// does not fail the table), an unknown -model is an error as on one
// program, and -model sra is a usage error, since the corpus records RA
// verdicts only.
var cliCases = []struct {
	golden string
	args   []string
	// witness compares only the numbered steps of the witness run and
	// the exit status: the old litmus command worded its verdict line
	// differently from a -models cell.
	witness bool
	long    bool // seconds of exploration: skipped under -short
}{
	{golden: "verify-peterson-sc", args: []string{"-corpus", "peterson-sc"}},
	{golden: "verify-peterson-ra", args: []string{"-corpus", "peterson-ra"}},
	{golden: "verify-peterson-ra-q", args: []string{"-q", "-corpus", "peterson-ra"}},
	{golden: "explain-corr", args: []string{"-explain", "-corpus", "CoRR"}},
	{golden: "verify-file", args: []string{"-q", "../../examples/lit/mp.lit"}},
	{golden: "verify-notrace", args: []string{"-trace=false", "-corpus", "dekker-sc"}},
	{golden: "verify-noreduce", args: []string{"-noreduce", "-q", "-corpus", "chase-lev-sc"}},
	{golden: "verify-bound", args: []string{"-max", "100", "-corpus", "peterson-ra"}},
	{golden: "stray-operand", args: []string{"-corpus", "SB", "extra.lit"}},
	{golden: "two-operands", args: []string{"../../examples/lit/mp.lit", "../../examples/lit/corr.lit"}},
	{golden: "all", args: []string{"-all"}},
	{golden: "all-stray-operand", args: []string{"-models", "ra", "-all", "extra.lit"}},
	{golden: "all-bound", args: []string{"-all", "-max", "1000"}},
	{golden: "all-prune-hashcompact", args: []string{"-all", "-prune", "-hashcompact"}},
	{golden: "all-model-bogus", args: []string{"-all", "-model", "bogus"}},
	{golden: "all-model-sra", args: []string{"-all", "-model", "sra"}},
	{golden: "verify-model-bogus", args: []string{"-model", "bogus", "-corpus", "SB"}},
	{golden: "list", args: []string{"-list"}},
	{golden: "list-modes", args: []string{"-list-modes"}},
	{golden: "models-barrier", args: []string{"-models", "ra,sra,tso,sc", "-corpus", "barrier"}},
	{golden: "state-ra-sb", args: []string{"-models", "state-ra", "-corpus", "SB"}, witness: true},
	{golden: "state-tso-sb", args: []string{"-models", "state-tso", "-corpus", "SB"}, witness: true},
	{golden: "state-ra-barrier", args: []string{"-models", "state-ra", "-corpus", "barrier"}, witness: true},
	{golden: "vet", args: []string{"vet", "../../examples/lit/corr.lit", "../../examples/lit/disjoint-fence.lit", "../../examples/lit/mp.lit"}},
	{golden: "golint", args: []string{"golint", "-models", "ra,sra", "../../examples/go/..."}},
	{golden: "golint-dekker", args: []string{"golint", "-models", "ra,sra,tso", "../../examples/go/dekker"}},
	{golden: "repair-sb", args: []string{"repair", "-corpus", "SB"}},
	{golden: "repair-peterson-rmws", args: []string{"repair", "-strategy", "rmws", "-print=false", "-corpus", "peterson-sc"}},
	{golden: "repair-stray-operands", args: []string{"repair", "-corpus", "SB", "a", "b"}},
	{golden: "emit-sb", args: []string{"emit", "-corpus", "SB"}},
	{golden: "simulate-sb", args: []string{"simulate", "-model", "ra", "-corpus", "SB", "-seed", "7"}},
	{golden: "simulate-hunt", args: []string{"simulate", "-model", "ra", "-corpus", "peterson-sc", "-tries", "300"}},
	{golden: "sweep", args: []string{"sweep", "-maxthreads", "3"}},
	{golden: "fig7", args: []string{"fig7"}, long: true},
	{golden: "fig7-markdown", args: []string{"fig7", "-markdown"}, long: true},
	{golden: "matrix", args: []string{"-models", "ra,sra,sc,tso,state-tso", "-all"}, long: true},
}

// durations matches a printed time.Duration ("0s", "1ms", "193.432µs",
// "1m2.5s") with the blanks that pad it, which vary with its width.
var durations = regexp.MustCompile(` *\b\d+(\.\d+)?(ns|µs|ms|s|m\d+(\.\d+)?s|h\d+m\d+(\.\d+)?s)\b *`)

func maskDurations(s string) string { return durations.ReplaceAllString(s, " <d> ") }

// witnessSteps keeps the numbered steps of a witness run.
func witnessSteps(s string) string {
	return strings.Join(witnessStep.FindAllString(s, -1), "")
}

var witnessStep = regexp.MustCompile(`(?m)^ +\d+: .*\n`)

// readGolden splits a golden into its exit status and stdout.
func readGolden(t *testing.T, name string) (int, string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	cmd, rest, _ := strings.Cut(string(data), "\n")
	exit, stdout, _ := strings.Cut(rest, "\n")
	code, err := strconv.Atoi(strings.TrimPrefix(exit, "# exit "))
	if !strings.HasPrefix(cmd, "$ ") || err != nil {
		t.Fatalf("%s: malformed golden header %q / %q", name, cmd, exit)
	}
	return code, stdout
}

func runCLI(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestCLIGoldens(t *testing.T) {
	for _, c := range cliCases {
		t.Run(c.golden, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("seconds of exploration")
			}
			wantCode, want := readGolden(t, c.golden)
			code, got, stderr := runCLI(c.args...)
			if c.witness {
				got, want = witnessSteps(got), witnessSteps(want)
			} else {
				got, want = maskDurations(got), maskDurations(want)
			}
			if code != wantCode || got != want {
				t.Errorf("rocker %s: exit %d, want %d\n--- stdout\n%s--- want\n%s--- stderr\n%s",
					strings.Join(c.args, " "), code, wantCode, got, want, stderr)
			}
		})
	}
}

// TestMatrixJSON pins the verdict matrix's JSON cells against the ones
// the old "sweep -models ra,sra,sc,tso,state-tso -json" wrote
// (testdata/matrix-sweep.json): every Figure 7 row's cells must agree in
// everything but the elapsed time.
func TestMatrixJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds of exploration")
	}
	out := filepath.Join(t.TempDir(), "models.json")
	if code, _, stderr := runCLI("-models", "ra,sra,sc,tso,state-tso", "-all", "-json", out); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	type doc struct {
		Modes []string         `json:"modes"`
		Cells []map[string]any `json:"cells"`
	}
	load := func(path string) (doc, map[string]map[string]any) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var d doc
		if err := json.Unmarshal(data, &d); err != nil {
			t.Fatal(err)
		}
		byKey := map[string]map[string]any{}
		for _, c := range d.Cells {
			delete(c, "elapsedMs")
			byKey[c["program"].(string)+"/"+c["mode"].(string)] = c
		}
		return d, byKey
	}
	gotDoc, got := load(out)
	wantDoc, want := load(filepath.Join("testdata", "matrix-sweep.json"))
	if strings.Join(gotDoc.Modes, ",") != strings.Join(wantDoc.Modes, ",") {
		t.Fatalf("modes %v, want %v", gotDoc.Modes, wantDoc.Modes)
	}
	if n := len(litmus.All()) * len(gotDoc.Modes); len(gotDoc.Cells) != n {
		t.Errorf("%d cells, want one per corpus row and mode (%d)", len(gotDoc.Cells), n)
	}
	if n := len(litmus.Fig7()) * len(wantDoc.Modes); len(want) != n {
		t.Fatalf("golden has %d cells, want %d", len(want), n)
	}
	for key, w := range want {
		g, _ := json.Marshal(got[key])
		wj, _ := json.Marshal(w)
		if !bytes.Equal(g, wj) {
			t.Errorf("%s: %s, want %s", key, g, wj)
		}
	}
}

// TestAllTimeoutPerRow pins -timeout on a corpus table as the deadline of
// each row (each cell under -models), not of the whole table: a deadline
// too short for any exploration still yields one line per corpus row and
// exit status 0, and a cell that needs no time is not turned into a
// timeout by the slow cells before it.
func TestAllTimeoutPerRow(t *testing.T) {
	code, out, stderr := runCLI("-all", "-timeout", "1ns")
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if code != 0 || len(lines) != len(litmus.All()) {
		t.Fatalf("exit %d, %d lines for %d rows\n%s%s", code, len(lines), len(litmus.All()), out, stderr)
	}
	for i, e := range litmus.All() {
		if !strings.HasPrefix(lines[i], e.Name+" ") {
			t.Errorf("line %d = %q, want row %s", i, lines[i], e.Name)
		}
	}

	code, out, stderr = runCLI("-models", "ra,tso", "-all", "-timeout", "50ms")
	if code != 0 {
		t.Fatalf("-models: exit %d\n%s", code, stderr)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "2RMW ") && strings.Join(strings.Fields(line), " ") != "2RMW ✓ 3 ✓ 0" {
			t.Errorf("2RMW row = %q, want ✓ 3 and ✓ 0", line)
		}
	}
}
