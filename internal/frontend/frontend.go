// Package frontend lifts a practical subset of real concurrent Go into
// the toy language of internal/lang, bridging litmus-scale inputs to
// production-scale ones (ROADMAP item 3). It is a static-analysis pass
// built entirely on the standard library's go/ast, go/parser and
// go/types: no code is executed, and nothing outside the stdlib is
// imported.
//
// The modeled subset is chosen to cover the shapes the paper's corpus
// gestures at (seqlocks, ticket locks, work-stealing deques, RCU):
//
//   - package-level sync/atomic typed atomics (atomic.Int32,
//     atomic.Uint32, atomic.Bool) become release/acquire locations;
//     Load/Store/Add/Swap/CompareAndSwap map to reads, writes, FADD,
//     XCHG and CAS;
//   - package-level plain int32/uint32/int/bool variables become
//     non-atomic (§6) locations;
//   - fixed-size arrays of either become .lit arrays with dynamically
//     evaluated indices;
//   - each `go` statement of a driver function spawns a thread; the
//     driver's trailing statements (after the last spawn) form a final
//     "main" thread;
//   - counted loops with constant bounds are unrolled; unbounded `for`
//     loops become goto loops; the two blocking spin shapes
//     `for x.Load() != v {}` and `for !x.CompareAndSwap(o, n) {}`
//     become the blocking wait/BCAS primitives (see docs/LANGUAGE.md on
//     why busy-wait loops must not be modeled as repeated loads);
//   - calls to small same-package functions are inlined;
//   - `if cond { panic(...) }` becomes an SC-checked assertion.
//
// Values are modeled over the bounded wrap-around domain [0, vals) of
// the paper's Example 2.2; the per-file directive `//rocker:vals N`
// picks the bound (default 4). This is an abstraction: Go integers do
// not wrap at N, so bounds must be chosen large enough that the modeled
// protocol never exceeds them (rocker vet flags oversize constants).
//
// Everything outside the subset is DECLINED with a per-construct reason
// and a source position, never mistranslated: channels, mutexes,
// selects, defers, pointers and escaping addresses, unbounded counted
// loops, calls to unknown functions, and shared variables that are also
// accessed outside the concurrency unit (the translation is only sound
// if the unit provably shares nothing but the modeled cells).
//
// Every emitted instruction carries its Go source position (file, line,
// column), so downstream findings — analysis.Vet lints, robustness
// witnesses, fence-repair suggestions — anchor to real Go lines.
package frontend

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lang"
)

// DefaultValCount is the value-domain bound used when a file carries no
// //rocker:vals directive.
const DefaultValCount = 4

// Unit is one translated concurrency unit: a driver function, the
// threads it spawns, and the shared cells they use.
type Unit struct {
	// Name is the driver function's name; File the file declaring it.
	Name string
	File string
	// Pos is the driver's declaration position.
	Pos token.Position
	// Prog is the translated program. Prog.Name == Name.
	Prog *lang.Program
	// SrcPos maps every instruction (thread index, pc) to the Go source
	// position it was lowered from.
	SrcPos [][]token.Position
	// Cells names the Go package variables backing each location, in
	// location order (arrays contribute one entry per cell).
	Cells []string

	// members are the function objects whose bodies the unit lowered;
	// cellObjs the package variables it modeled. Both feed the
	// exclusivity check.
	members  map[types.Object]bool
	cellObjs map[types.Object]bool
}

// PosAt returns the Go position of instruction pc of thread tid.
func (u *Unit) PosAt(tid lang.Tid, pc int) token.Position {
	if int(tid) < len(u.SrcPos) && pc < len(u.SrcPos[tid]) {
		return u.SrcPos[tid][pc]
	}
	return token.Position{Filename: u.File}
}

// FindPos looks up a Go position by the (line, col) pair stored in the
// instructions themselves — the shape analysis.Vet findings carry.
func (u *Unit) FindPos(line, col int) token.Position {
	for _, th := range u.SrcPos {
		for _, p := range th {
			if p.Line == line && p.Column == col {
				return p
			}
		}
	}
	return token.Position{Filename: u.File, Line: line, Column: col}
}

// Declined records a concurrency unit the frontend refused to
// translate, with the construct and position that disqualified it.
type Declined struct {
	Name      string // driver function name
	File      string
	Pos       token.Position // position of the offending construct
	Construct string         // e.g. "channel type", "unbounded counted loop"
	Reason    string
}

func (d *Declined) Error() string {
	return fmt.Sprintf("%s: cannot translate %s: %s (%s)", d.Pos, d.Name, d.Construct, d.Reason)
}

// Package is the result of translating one Go package: the units that
// translated, and the ones that were declined.
type Package struct {
	PkgName  string
	Units    []*Unit
	Declined []*Declined
}

// Translator holds the parsed and type-checked package.
type Translator struct {
	fset  *token.FileSet
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
	// vals is the per-file value bound from //rocker:vals directives.
	vals map[*ast.File]int
	// funcDecls maps function objects to their declarations, for
	// spawn and inline resolution.
	funcDecls map[types.Object]*ast.FuncDecl
}

var valsDirective = regexp.MustCompile(`^//rocker:vals\s+(\d+)\s*$`)

// TranslateFiles parses, type-checks and translates the given Go files
// as a single package. Type errors fail the whole batch (the frontend
// must never lower code whose types it cannot trust).
func TranslateFiles(paths []string) (*Package, error) {
	srcs := make(map[string]string, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		srcs[p] = string(data)
	}
	return TranslateSources(srcs)
}

// TranslateSources is TranslateFiles over in-memory file contents,
// keyed by file name.
//
// Each call parses and fully type-checks its own files in a FileSet of
// its own, so positions and findings depend on nothing but the input.
// Imports resolve through one importer shared by the whole process, and
// only standard-library packages (directories under GOROOT/src) can be
// imported: a local, relative, GOPATH or module path fails the type
// check with an error naming the import, before anything outside GOROOT
// is read. Each imported package is parsed and type-checked on its first
// import and then stays resident for the life of the process; the cache
// is bounded by what GOROOT holds.
func TranslateSources(srcs map[string]string) (*Package, error) {
	return translateSources(srcs, stdlib)
}

func translateSources(srcs map[string]string, imp types.Importer) (*Package, error) {
	fset := token.NewFileSet()
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, srcs[name], parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("frontend: no input files")
	}
	pkgName := files[0].Name.Name
	for _, f := range files[1:] {
		if f.Name.Name != pkgName {
			return nil, fmt.Errorf("frontend: files span packages %s and %s", pkgName, f.Name.Name)
		}
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(pkgName, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("frontend: type check: %w", err)
	}

	tr := &Translator{
		fset:      fset,
		files:     files,
		info:      info,
		pkg:       pkg,
		vals:      map[*ast.File]int{},
		funcDecls: map[types.Object]*ast.FuncDecl{},
	}
	for _, f := range files {
		tr.vals[f] = fileVals(f)
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				if obj := info.Defs[fd.Name]; obj != nil {
					tr.funcDecls[obj] = fd
				}
			}
		}
	}
	return tr.translate()
}

// fileVals extracts the //rocker:vals directive, if any.
func fileVals(f *ast.File) int {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if m := valsDirective.FindStringSubmatch(c.Text); m != nil {
				if n, err := strconv.Atoi(m[1]); err == nil && n >= 2 && n <= 64 {
					return n
				}
			}
		}
	}
	return DefaultValCount
}

// translate discovers and lowers every concurrency unit: a top-level
// function whose body spawns goroutines.
func (tr *Translator) translate() (*Package, error) {
	out := &Package{PkgName: tr.pkg.Name()}
	for _, f := range tr.files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil || !containsGo(fd.Body) {
				continue
			}
			unit, decl := tr.translateUnit(f, fd)
			if decl != nil {
				out.Declined = append(out.Declined, decl)
			} else {
				out.Units = append(out.Units, unit)
			}
		}
	}
	// The exclusivity check needs the full unit list: every cell a unit
	// models must be untouched outside that unit's member functions.
	for i := 0; i < len(out.Units); {
		if decl := tr.checkExclusive(out.Units[i]); decl != nil {
			out.Declined = append(out.Declined, decl)
			out.Units = append(out.Units[:i], out.Units[i+1:]...)
			continue
		}
		i++
	}
	return out, nil
}

// containsGo reports whether the function body spawns goroutines at its
// top level (directly or via a top-level spawn loop). Deeper `go`
// statements make the function a unit candidate too — the driver scan
// then declines it with a precise reason instead of ignoring it.
func containsGo(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			found = true
		}
		return !found
	})
	return found
}

// unitState carries one unit's lowering state.
type unitState struct {
	tr       *Translator
	file     *ast.File
	driver   *ast.FuncDecl
	valCount int

	cells    map[types.Object]*cellRef
	cellList []*cellRef
	nextLoc  int

	// members are the functions whose bodies this unit lowers (driver,
	// spawned functions, inlined callees): the exclusivity domain.
	members map[types.Object]bool

	threads []threadResult
	// usedCellIdents counts lowered references, for the exclusivity
	// cross-check.
	unitName string
}

type threadResult struct {
	name     string
	insts    []lang.Inst
	pos      []token.Position
	numRegs  int
	regNames []string
}

// decline aborts the current unit's lowering via panic; translateUnit
// recovers it. Using panics keeps the lowering code linear — every
// construct check would otherwise thread an error through a dozen
// levels of recursion.
type declineError struct {
	pos       token.Position
	construct string
	reason    string
}

func (u *unitState) declinef(at ast.Node, construct, format string, args ...any) {
	panic(&declineError{
		pos:       u.tr.fset.Position(at.Pos()),
		construct: construct,
		reason:    fmt.Sprintf(format, args...),
	})
}

// translateUnit lowers one driver function.
func (tr *Translator) translateUnit(f *ast.File, fd *ast.FuncDecl) (unit *Unit, decl *Declined) {
	u := &unitState{
		tr:       tr,
		file:     f,
		driver:   fd,
		valCount: tr.vals[f],
		cells:    map[types.Object]*cellRef{},
		members:  map[types.Object]bool{},
		unitName: fd.Name.Name,
	}
	u.members[tr.info.Defs[fd.Name]] = true
	defer func() {
		if r := recover(); r != nil {
			de, ok := r.(*declineError)
			if !ok {
				panic(r)
			}
			unit = nil
			decl = &Declined{
				Name:      fd.Name.Name,
				File:      tr.fset.Position(fd.Pos()).Filename,
				Pos:       de.pos,
				Construct: de.construct,
				Reason:    de.reason,
			}
		}
	}()

	u.lowerDriver()

	prog := &lang.Program{
		Name:     sanitizeName(fd.Name.Name),
		ValCount: u.valCount,
	}
	for _, c := range u.cellList {
		if c.size == 1 {
			prog.Locs = append(prog.Locs, lang.LocInfo{Name: c.name, NA: c.na})
		} else {
			for i := 0; i < c.size; i++ {
				prog.Locs = append(prog.Locs, lang.LocInfo{Name: fmt.Sprintf("%s[%d]", c.name, i), NA: c.na})
			}
		}
	}
	unit = &Unit{
		Name:     fd.Name.Name,
		File:     tr.fset.Position(fd.Pos()).Filename,
		Pos:      tr.fset.Position(fd.Pos()),
		Prog:     prog,
		members:  u.members,
		cellObjs: map[types.Object]bool{},
	}
	for _, c := range u.cellList {
		unit.cellObjs[c.obj] = true
		for i := 0; i < c.size; i++ {
			unit.Cells = append(unit.Cells, c.obj.Name())
		}
	}
	usedNames := map[string]bool{}
	for _, th := range u.threads {
		name := uniqueName(sanitizeName(th.name), usedNames)
		prog.Threads = append(prog.Threads, lang.SeqProg{
			Name:     name,
			Insts:    th.insts,
			NumRegs:  th.numRegs,
			RegNames: th.regNames,
		})
		unit.SrcPos = append(unit.SrcPos, th.pos)
	}
	if len(prog.Threads) < 2 {
		u.declinef(fd, "single-threaded unit",
			"unit spawns %d thread(s); robustness needs at least two", len(prog.Threads))
	}
	if err := prog.Validate(); err != nil {
		u.declinef(fd, "validation", "translated program is invalid: %v", err)
	}
	return unit, nil
}

// checkExclusive verifies that every cell the unit models is referenced
// only inside the unit's member functions: any outside access (another
// function reading a counter, main() printing a result) would make the
// model unsound, so the unit is declined instead.
func (tr *Translator) checkExclusive(u *Unit) *Declined {
	for _, f := range tr.files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := tr.info.Defs[fd.Name]
			if u.members[obj] {
				continue
			}
			var bad *ast.Ident
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if bad != nil {
					return false
				}
				if id, ok := n.(*ast.Ident); ok {
					if o := tr.info.Uses[id]; o != nil && u.cellObjs[o] {
						bad = id
					}
				}
				return true
			})
			if bad != nil {
				return &Declined{
					Name:      u.Name,
					File:      u.File,
					Pos:       tr.fset.Position(bad.Pos()),
					Construct: "shared cell escapes the unit",
					Reason: fmt.Sprintf("variable %s is also accessed in %s, outside the unit",
						bad.Name, fd.Name.Name),
				}
			}
		}
	}
	return nil
}

// litKeywords are identifiers reserved by the .lit grammar; Go names
// colliding with them are suffixed during emission.
var litKeywords = map[string]bool{
	"program": true, "vals": true, "locs": true, "na": true, "array": true,
	"thread": true, "end": true, "goto": true, "if": true, "wait": true,
	"assert": true, "fence": true, "skip": true,
	"CAS": true, "FADD": true, "XCHG": true, "BCAS": true, "bcas": true,
}

// sanitizeName makes a Go identifier safe as a .lit identifier.
func sanitizeName(s string) string {
	if s == "" {
		return "x"
	}
	if litKeywords[s] || strings.HasPrefix(s, "__") {
		return s + "_"
	}
	return s
}

// uniqueName suffixes name until it is unused, then records it.
func uniqueName(name string, used map[string]bool) string {
	out := name
	for i := 2; used[out]; i++ {
		out = fmt.Sprintf("%s%d", name, i)
	}
	used[out] = true
	return out
}

// relPath shortens a path for display, preferring the working
// directory-relative form golint reports.
func relPath(p string) string {
	if wd, err := os.Getwd(); err == nil {
		if r, err := filepath.Rel(wd, p); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
	}
	return p
}
