package frontend

import (
	"fmt"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"path/filepath"
	"sync"
)

// stdImporter resolves the imports of every translation in the process.
// It wraps one source importer over GOROOT, with its own FileSet, and
// keeps each package it loaded by import path: the standard library
// cannot change while the process runs, so sync/atomic is parsed and
// type-checked once, not once per translation. Only the importable
// packages are loaded.
type stdImporter struct {
	src string // GOROOT/src; empty when no GOROOT is known

	// mu serializes misses, because the source importer is not safe for
	// concurrent use. Hits read pkgs without it, so they never wait
	// behind another path's first import.
	mu   sync.Mutex
	imp  types.ImporterFrom
	pkgs sync.Map // import path -> *types.Package
}

// importable lists the packages a translation may import: the ones the
// frontend models, and unsafe. Any other path fails before the source
// importer or go/build sees it, so no import reads outside GOROOT or
// starts a process (os/user and net/http would run cgo and the C
// compiler), and a refused import costs the same on every call.
var importable = map[string]bool{"sync/atomic": true, "sync": true, "runtime": true, "time": true, "unsafe": true}

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
	if !importable[path] {
		return nil, fmt.Errorf("%s is not a standard-library package the frontend models; only sync/atomic, sync, runtime, time and unsafe can be imported", path)
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
