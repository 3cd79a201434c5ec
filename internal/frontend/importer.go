package frontend

import (
	"fmt"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// stdImporter resolves the imports of every translation in the process.
// It wraps one source importer over GOROOT, with its own FileSet, and
// keeps each package it loaded by import path: the standard library
// cannot change while the process runs, so sync/atomic is parsed and
// type-checked once, not once per translation. Only paths that name a
// directory under GOROOT/src are loaded.
type stdImporter struct {
	src string // GOROOT/src; empty when no GOROOT is known

	// mu serializes misses, because the source importer is not safe for
	// concurrent use. Hits read pkgs without it, so they never wait
	// behind another path's first import.
	mu   sync.Mutex
	imp  types.ImporterFrom
	pkgs sync.Map // import path -> *types.Package
}

// stdlib is the importer every TranslateSources call shares.
var stdlib = newStdImporter()

func newStdImporter() *stdImporter {
	s := &stdImporter{imp: importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)}
	if build.Default.GOROOT != "" {
		s.src = filepath.Join(build.Default.GOROOT, "src")
	}
	return s
}

func (s *stdImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := s.pkgs.Load(path); ok {
		return pkg.(*types.Package), nil
	}
	if !s.inGOROOT(path) {
		return nil, fmt.Errorf("%s is not a standard-library package; only those can be imported", path)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if pkg, ok := s.pkgs.Load(path); ok {
		return pkg.(*types.Package), nil
	}
	// Resolving from GOROOT/src keeps go/build inside GOROOT: it finds
	// the standard library's vendored packages and never runs the go
	// command.
	pkg, err := s.imp.ImportFrom(path, s.src, 0)
	if err != nil {
		return nil, err
	}
	s.pkgs.Store(path, pkg)
	return pkg, nil
}

// inGOROOT reports whether path is a clean import path naming a
// directory under GOROOT/src. Local, absolute and non-canonical paths
// are refused before the filesystem is touched.
func (s *stdImporter) inGOROOT(path string) bool {
	if s.src == "" {
		return false
	}
	for _, elem := range strings.Split(path, "/") {
		if elem == "" || elem == "." || elem == ".." || strings.ContainsRune(elem, '\\') {
			return false
		}
	}
	fi, err := os.Stat(filepath.Join(s.src, filepath.FromSlash(path)))
	return err == nil && fi.IsDir()
}
