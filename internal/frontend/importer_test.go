package frontend

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// exampleSources reads every examples/go file, keyed by base name.
func exampleSources(tb testing.TB) map[string]string {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "go", "*", "*.go"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no examples/go sources: %v", err)
	}
	srcs := map[string]string{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		srcs[filepath.Base(path)] = string(data)
	}
	return srcs
}

// genericSrc instantiates a generic sync/atomic type, so concurrent
// translations also instantiate types of a shared imported package.
const genericSrc = `//rocker:vals 4
package ptr

import "sync/atomic"

type node struct{ v int32 }

var head atomic.Pointer[node]
var flag atomic.Int32

func push() {
	head.Store(&node{v: 1})
	flag.Store(1)
}

func pop() {
	if flag.Load() == 1 {
		_ = head.Load()
	}
}

func run() {
	go push()
	go pop()
}
`

// snapshot renders everything a translation reports: each unit's
// listing, positions and cells, each decline, or the error.
func snapshot(pkg *Package, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "package %s\n", pkg.PkgName)
	for _, u := range pkg.Units {
		fmt.Fprintf(&b, "unit %s %s %v cells=%v\n%s", u.Name, u.File, u.Pos, u.Cells, EmitLit(u))
		for tid, th := range u.SrcPos {
			fmt.Fprintf(&b, "thread %d: %v\n", tid, th)
		}
	}
	for _, d := range pkg.Declined {
		fmt.Fprintf(&b, "declined %s %s %v %q %q\n", d.Name, d.File, d.Pos, d.Construct, d.Reason)
	}
	return b.String()
}

// TestTranslateConcurrent translates every examples/go file and a
// generic atomic.Pointer source from several goroutines on a fresh
// importer, so first imports and cache hits race, and checks each
// result against a sequential translation.
func TestTranslateConcurrent(t *testing.T) {
	srcs := exampleSources(t)
	srcs["ptr.go"] = genericSrc
	var names []string
	want := map[string]string{}
	for name, src := range srcs {
		names = append(names, name)
		want[name] = snapshot(TranslateSources(map[string]string{name: src}))
	}
	if !strings.Contains(want["ptr.go"], "package ptr") {
		t.Fatalf("generic source did not type-check: %s", want["ptr.go"])
	}

	imp := newStdImporter()
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range names {
				name := names[(i+g)%len(names)]
				got := snapshot(translateSources(map[string]string{name: srcs[name]}, imp))
				if got != want[name] {
					t.Errorf("goroutine %d, %s: concurrent translation differs from sequential:\n%s\nwant:\n%s", g, name, got, want[name])
				}
			}
		}()
	}
	wg.Wait()
}

// TestImportHitDoesNotWait pins that a cached import is served while
// another path's first import holds the importer.
func TestImportHitDoesNotWait(t *testing.T) {
	imp := newStdImporter()
	want, err := imp.Import("sync/atomic")
	if err != nil {
		t.Fatal(err)
	}
	imp.mu.Lock() // a first import in progress
	defer imp.mu.Unlock()
	done := make(chan *types.Package)
	go func() {
		pkg, _ := imp.Import("sync/atomic")
		done <- pkg
	}()
	select {
	case got := <-done:
		if got != want {
			t.Errorf("hit returned %p, want the cached %p", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a cache hit waited behind a first import")
	}
}

// TestImportsStandardLibraryOnly pins that translation imports only
// packages under GOROOT: a module path (this repository's own), an
// unknown domain path and a relative path each fail with an error that
// names the import, without resolving it from the working directory.
func TestImportsStandardLibraryOnly(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"repro/internal/lang", "example.com/nope", "./testdata", "../frontend", "/etc", "sync/../../frontend"} {
		t.Run(path, func(t *testing.T) {
			src := fmt.Sprintf("package p\n\nimport _ %q\n", path)
			_, err := TranslateSources(map[string]string{"input.go": src})
			if err == nil {
				t.Fatalf("import %q translated", path)
			}
			msg := err.Error()
			if !strings.Contains(msg, path+" is not a standard-library package") {
				t.Errorf("error does not name the refused import: %v", err)
			}
			if strings.Contains(msg, wd) {
				t.Errorf("error leaks the working directory: %v", err)
			}
		})
	}

	src := "package p\n\nimport (\n\t_ \"sync\"\n\t_ \"unsafe\"\n)\n"
	if _, err := TranslateSources(map[string]string{"input.go": src}); err != nil {
		t.Errorf("standard-library imports: %v", err)
	}
}

// FuzzTranslateSources feeds arbitrary single-file sources to the
// frontend: each must translate or fail with an error, never panic; every
// unit must carry positions inside its file, and every decline a
// construct and a reason. `go test` runs the seeds only, `go test -fuzz`
// explores.
func FuzzTranslateSources(f *testing.F) {
	for _, src := range exampleSources(f) {
		f.Add(src)
	}
	for _, tc := range declineCases {
		f.Add("//rocker:vals 4\n" + tc.src)
	}
	f.Add(mpSrc)
	f.Add(genericSrc)
	f.Fuzz(func(t *testing.T, src string) {
		const name = "fuzz.go"
		pkg, err := TranslateSources(map[string]string{name: src})
		if err != nil {
			return
		}
		lines := strings.Count(src, "\n") + 1
		inFile := func(p token.Position) bool {
			return p.Filename == name && p.Line >= 1 && p.Line <= lines && p.Column >= 1
		}
		for _, u := range pkg.Units {
			if !inFile(u.Pos) {
				t.Errorf("unit %s at %v, outside %s", u.Name, u.Pos, name)
			}
			for tid, th := range u.SrcPos {
				for pc, p := range th {
					if !inFile(p) {
						t.Errorf("unit %s thread %d pc %d at %v, outside %s", u.Name, tid, pc, p, name)
					}
				}
			}
			if err := u.Prog.Validate(); err != nil {
				t.Errorf("unit %s: invalid program: %v\n%s", u.Name, err, EmitLit(u))
			}
		}
		for _, d := range pkg.Declined {
			if d.Construct == "" || d.Reason == "" {
				t.Errorf("decline of %s without construct or reason: %+v", d.Name, d)
			}
			if !inFile(d.Pos) {
				t.Errorf("decline of %s at %v, outside %s", d.Name, d.Pos, name)
			}
		}
	})
}

// BenchmarkTranslate times TranslateSources on each examples/go file
// alone, as /v1/analyze receives them: parse, type check, translation.
func BenchmarkTranslate(b *testing.B) {
	srcs := exampleSources(b)
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		in := map[string]string{name: srcs[name]}
		b.Run(strings.TrimSuffix(name, ".go"), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := TranslateSources(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
