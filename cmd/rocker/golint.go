package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/frontend"
	"repro/internal/model"
)

// runGolint implements "rocker golint": translate real sync/atomic Go
// code into the verifier's language with internal/frontend and lint
// every concurrency unit for robustness, with all findings anchored to
// Go source positions.
//
// Operands are .go files, package directories, or dir/... patterns
// (every subdirectory holding Go files becomes one package). The exit
// status is 1 when any unit has an error finding (not robust, failing
// assertion, data race) or a vet warning, 2 on I/O / parse / type
// errors, and 0 otherwise — declined units report their reason but do
// not fail the run, since declining is the frontend's way of refusing
// to guess.
func runGolint(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("rocker golint", stderr, "rocker golint [flags] file.go... | dir | dir/...")
	modelsFlag := fs.String("models", "ra", "comma-separated verdict models (see rocker -list-modes)")
	maxStates := maxFlag(fs, 2_000_000)
	workers := workersFlag(fs)
	noRepair := fs.Bool("norepair", false, "skip the fence-repair suggestion on non-robust units")
	emitDir := fs.String("emit", "", "write each unit's translated .lit listing into this directory")
	quiet := fs.Bool("q", false, "verdict lines only, no per-unit ok output")
	timeout := fs.Duration("timeout", 0, "abort after this long (0 = no deadline)")
	if err := fs.Parse(args); err != nil {
		return parseStatus(err)
	}
	if fs.NArg() == 0 {
		return fail(fs, usageError("no Go files or packages given"))
	}
	modes, err := model.ParseModes(*modelsFlag)
	if err != nil {
		return fail(fs, fmt.Errorf("-models: %w", err))
	}
	pkgs, err := golintPackages(fs.Args())
	if err != nil {
		return fail(fs, err)
	}
	if len(pkgs) == 0 {
		return fail(fs, errors.New("no Go files found"))
	}

	ctx, cancel := deadline(*timeout)
	defer cancel()
	opts := frontend.LintOptions{
		Models:    modes,
		MaxStates: *maxStates,
		Workers:   *workers,
		NoRepair:  *noRepair,
		Ctx:       ctx,
	}

	status := 0
	for _, files := range pkgs {
		pkg, err := frontend.TranslateFiles(files)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
			status = 2
			continue
		}
		for _, d := range pkg.Declined {
			fmt.Fprintf(stdout, "%s: %s: declined: %s (%s)\n", d.Pos, d.Name, d.Reason, d.Construct)
		}
		for _, u := range pkg.Units {
			rep, err := frontend.LintUnit(u, opts)
			if err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
				status = 2
				continue
			}
			if *emitDir != "" {
				name := filepath.Join(*emitDir, u.Prog.Name+".lit")
				if err := os.WriteFile(name, []byte(frontend.EmitLit(u)), 0o644); err != nil {
					return fail(fs, err)
				}
			}
			bad := false
			for _, f := range rep.Findings {
				fmt.Fprintf(stdout, "%s: %s\n", f.Pos, f.Message)
				bad = true
			}
			verdicts := make([]string, 0, len(modes))
			for _, m := range modes {
				mark := "✗"
				if rep.Verdicts[m] {
					mark = "✓"
				}
				verdicts = append(verdicts, fmt.Sprintf("%s %s", m, mark))
			}
			sort.Strings(verdicts)
			if bad {
				if status == 0 {
					status = 1
				}
				fmt.Fprintf(stdout, "%s: %s: %s\n", u.Pos, u.Name, strings.Join(verdicts, ", "))
			} else if !*quiet {
				fmt.Fprintf(stdout, "%s: %s: ok (%s)\n", u.Pos, u.Name, strings.Join(verdicts, ", "))
			} else {
				fmt.Fprintf(stdout, "%s: %s: %s\n", u.Pos, u.Name, strings.Join(verdicts, ", "))
			}
		}
	}
	return status
}

// golintPackages expands the operands into per-package file lists:
// explicit .go files form one package; a directory contributes its
// (non-test) Go files; dir/... walks recursively, one package per
// directory.
func golintPackages(args []string) ([][]string, error) {
	var pkgs [][]string
	var loose []string
	addDir := func(dir string) error {
		files, err := goFilesIn(dir)
		if err != nil {
			return err
		}
		if len(files) > 0 {
			pkgs = append(pkgs, files)
		}
		return nil
	}
	for _, arg := range args {
		switch {
		case strings.HasSuffix(arg, "/..."):
			root := strings.TrimSuffix(arg, "/...")
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() {
					return addDir(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		case strings.HasSuffix(arg, ".go"):
			loose = append(loose, arg)
		default:
			info, err := os.Stat(arg)
			if err != nil {
				return nil, err
			}
			if !info.IsDir() {
				return nil, fmt.Errorf("%s: not a .go file or directory", arg)
			}
			if err := addDir(arg); err != nil {
				return nil, err
			}
		}
	}
	if len(loose) > 0 {
		pkgs = append(pkgs, loose)
	}
	return pkgs, nil
}

func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return files, nil
}
