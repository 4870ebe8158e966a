package leaserelease

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreferenced lists the exports and struct fields of internal/, cmd/ and
// the root package that no non-test code reads, each with the reader that
// keeps it: an oracle a test compares against, the paper section that names
// it, or the -race build that checks it. A key is "dir.Name" or
// "dir.Type.Method" or "dir.Type.field" (dir is "leaserelease" for the root
// package), or a package directory for all of its exports.
var unreferenced = map[string]string{
	"internal/linearize":                        "the linearizability checker the structure tests hold their histories to",
	"internal/apps/pagerank.Pagerank.Reference": "the sequential PageRank the Figure 5 tests compare the simulated one against",
	"internal/apps/pagerank.Pagerank.Ranks":     "the Figure 5 tests read the ranks back to compare them against Reference",
	"internal/stm.TL2.Read":                     "the TL2 tests' oracle (Figures 4 and 5)",
	"internal/locks.NewTAS":                     "PAPER.md §1 lists TAS among the paper's locks; the lock tests run it",

	"internal/ds.BST.CheckInvariants":            "the set tests' structural oracle",
	"internal/ds.LazySkipList.CheckInvariants":   "the set tests' structural oracle",
	"internal/ds.LFSkipList.CheckInvariants":     "the set tests' structural oracle",
	"internal/ds.MichaelHashMap.CheckInvariants": "the set tests' structural oracle",
	"internal/ds.NMTree.CheckInvariants":         "the set tests' structural oracle",
	"internal/ds.MichaelHashMap.Len":             "the structure tests' conservation oracle",
	"internal/ds.PQFine.Len":                     "the structure tests' conservation oracle",
	"internal/ds.PQGlobal.Len":                   "the structure tests' conservation oracle",
	"internal/multiqueue.MultiQueue.Len":         "the structure tests' conservation oracle",

	"internal/machine.Ctx.Fence":            "tests read Machine.Stats and directory state from inside a thread",
	"internal/machine.Ctx.LeaseHeld":        "the lease tests assert which leases a thread holds (Algorithm 1)",
	"internal/machine.Machine.L1":           "the invariant checker's mutation tests corrupt a core's L1 through it",
	"internal/coherence.Directory.View":     "the directory and Tardis tests read a line's committed state with it",
	"internal/mem.Allocator.Brk":            "MemImage, the memory the run-ahead differential compares (DESIGN.md §2.4), walks the arenas with it",
	"internal/faults.Config.WithPreemption": "the chaos soak's and the run-ahead differential's preemption profiles",
	"internal/telemetry.Ledger.Lines":       "the ledger tests' per-line oracle",

	"internal/invariant.Checker.Checks":         "the checker tests' oracle: a healthy run observed events, and one seed checks the same number twice",
	"internal/machine.Auto.Inserted":            "TestAutoLearnsLoadCASPattern and TestAutoHarmlessOnReadOnly count the leases it placed",
	"internal/ds.EliminationStack.Eliminations": "TestEliminationHappens and TestContainersLinearizable's elimination cells: contention eliminates",
	"internal/ds.combiner.passes":               "TestFCStackCombinerActuallyCombines: a combining pass serves two operations or more",
	"internal/machine.coreState.reqBusy":        "the -race poison mode (pool_poison_race.go) panics on a request reused in flight",
	"internal/machine.expiry.live":              "the -race poison mode (pool_poison_race.go) panics on an expiry record fired after its release",
	"internal/coherence.notice.live":            "the -race poison mode (notice_poison_race.go) panics on a notice run after its release",
}

// Every exported function, method, type, constant and variable of internal/,
// cmd/ and the root package has a reader: non-test code somewhere in the
// module (examples/ and benchmarks/ included) resolves to that object, or the
// method implements an interface method such code calls. Every struct field
// there has one too: such code selects it other than to store to it, or
// encoding/json reads it by its tag. What only tests read must be in
// unreferenced with its reader, and unreferenced holds nothing else.
func TestExportsAreReached(t *testing.T) {
	findings, err := unreached(".", "leaserelease")
	if err != nil {
		t.Fatal(err)
	}
	stale := map[string]bool{}
	for k := range unreferenced {
		stale[k] = true
	}
	for _, key := range findings {
		if _, ok := unreferenced[key]; !ok {
			dir, _, _ := strings.Cut(key, ".")
			if _, ok := unreferenced[dir]; !ok {
				t.Errorf("no non-test code reads %s: delete it, or add it to unreferenced with its reader", key)
				continue
			}
			key = dir
		}
		delete(stale, key)
	}
	for k := range stale {
		t.Errorf("unreferenced[%q] is stale: non-test code reads it, or it is gone", k)
	}
}

// TestAuditResolvesObjects runs the audit on a fixture module: a method whose
// only call is a namesake's (clock.Clock.Seconds beside time.Duration.Seconds)
// is reported, and a method only called through an interface it implements
// (clock.Quartz.Tick) is not. A field only incremented (Clock.Ticks) or only
// set in a literal (Clock.Started) is reported; one only assigned but
// carrying a json tag (Clock.Name) is not.
func TestAuditResolvesObjects(t *testing.T) {
	findings, err := unreached("testdata/reach", "reach")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/clock.Clock.Seconds", "internal/clock.Clock.Started", "internal/clock.Clock.Ticks"}
	if fmt.Sprint(findings) != fmt.Sprint(want) {
		t.Fatalf("findings = %q, want %q", findings, want)
	}
}

// unreached type-checks the module rooted at root, whose module path is
// modPath, and returns the keys of the exports and struct fields of
// internal/, cmd/ and the root package that its non-test code does not read,
// sorted.
func unreached(root, modPath string) ([]string, error) {
	l := &loader{
		root: root, mod: modPath,
		fset:   token.NewFileSet(),
		pkgs:   map[string]*types.Package{},
		decls:  map[types.Object]ast.Node{},
		fields: map[types.Object]string{},
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, path)
		_, err = l.load(l.importPath(filepath.ToSlash(rel)))
		return err
	})
	if err != nil {
		return nil, err
	}

	// What non-test code reads: every object an identifier resolves to,
	// outside the object's own declaration, and the interfaces among them.
	read := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{}
	for id, obj := range l.info.Uses {
		if obj.Pkg() == nil || l.insideOwnDecl(id, obj) {
			continue
		}
		read[origin(obj)] = true
		if tn, ok := obj.(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces[it] = true
			}
		}
	}
	std, err := l.stdInterfaces()
	if err != nil {
		return nil, err
	}
	for _, it := range std {
		ifaces[it] = true
	}

	var findings []string
	for _, obj := range l.exports {
		if read[obj] || implementsRead(obj, ifaces) {
			continue
		}
		findings = append(findings, l.key(obj))
	}
	fieldsRead := l.fieldsRead()
	for obj, key := range l.fields {
		if !fieldsRead[obj] {
			findings = append(findings, key)
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// fieldsRead returns the struct fields that non-test code selects other than
// to store to them: a selector on the left of an assignment or in an
// increment or decrement stores, and a composite-literal key is no selector.
func (l *loader) fieldsRead() map[types.Object]bool {
	stores := map[*ast.SelectorExpr]bool{}
	store := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			stores[sel] = true
		}
	}
	for _, f := range l.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					store(e)
				}
			case *ast.IncDecStmt:
				store(n.X)
			}
			return true
		})
	}
	read := map[types.Object]bool{}
	for sel, s := range l.info.Selections {
		if s.Kind() == types.FieldVal && !stores[sel] {
			read[s.Obj().(*types.Var).Origin()] = true
		}
	}
	return read
}

// loader type-checks a module's non-test packages from source, all into one
// types.Info, with standard packages from the source importer.
type loader struct {
	root, mod string
	fset      *token.FileSet
	std       types.ImporterFrom
	pkgs      map[string]*types.Package
	info      *types.Info
	decls     map[types.Object]ast.Node // an object's own declaration
	exports   []types.Object            // in the audited packages, in load order
	fields    map[types.Object]string   // the audited packages' struct fields, by key
	files     []*ast.File               // every non-test file of the module
}

func (l *loader) importPath(rel string) string {
	if rel == "." {
		return l.mod
	}
	return l.mod + "/" + rel
}

func (l *loader) inModule(path string) bool {
	return path == l.mod || strings.HasPrefix(path, l.mod+"/")
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if l.inModule(path) {
		pkg, err := l.load(path)
		if err == nil && pkg == nil {
			err = fmt.Errorf("%s: no Go files", path)
		}
		return pkg, err
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load type-checks the module package at import path, once; a directory
// without non-test Go files yields nil.
func (l *loader) load(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	l.pkgs[path] = nil
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.mod), "/")
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	audited := rel == "" || rel == "internal" || rel == "cmd" ||
		strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")
	l.files = append(l.files, files...)
	for _, f := range files {
		l.declare(f, audited)
		if audited {
			l.declareFields(f, rel)
		}
	}
	return pkg, nil
}

// declareFields records the struct fields declared in f, in package
// directory dir, each keyed "dir.Type.field" after the declaration that
// encloses it: a type, else a variable or a function. A field
// whose json tag names it is read by encoding/json; an embedded field is read
// through what it promotes. Neither is recorded.
func (l *loader) declareFields(f *ast.File, dir string) {
	if dir == "" {
		dir = l.mod
	}
	var scope []string // names of the enclosing declarations
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			scope = scope[:len(scope)-1]
			return true
		}
		name := ""
		switch n := n.(type) {
		case *ast.FuncDecl:
			name = n.Name.Name
		case *ast.TypeSpec:
			name = n.Name.Name
		case *ast.ValueSpec:
			name = n.Names[0].Name
		case *ast.StructType:
			for _, fld := range n.Fields.List {
				if fld.Tag != nil {
					tag, _ := strconv.Unquote(fld.Tag.Value)
					if jn, ok := reflect.StructTag(tag).Lookup("json"); ok && jn != "-" {
						continue
					}
				}
				for _, id := range fld.Names {
					if obj := l.info.Defs[id]; obj != nil && id.Name != "_" {
						l.fields[obj] = dir + "." + scope[len(scope)-1] + "." + id.Name
					}
				}
			}
		}
		if name == "" && len(scope) > 0 {
			name = scope[len(scope)-1]
		}
		scope = append(scope, name)
		return true
	})
}

// declare records the declaring node of each package-level object and
// method of f and, in an audited package, its exports.
func (l *loader) declare(f *ast.File, audited bool) {
	add := func(id *ast.Ident, node ast.Node) {
		obj := l.info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		l.decls[obj] = node
		if audited && id.IsExported() {
			l.exports = append(l.exports, obj)
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			add(d.Name, d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, s)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(n, s)
					}
				}
			}
		}
	}
}

// insideOwnDecl reports whether id lies in obj's own declaration, or, for a
// type, in a method declared on it: a recursive type, a recursive call and
// a receiver do not read what they name.
func (l *loader) insideOwnDecl(id *ast.Ident, obj types.Object) bool {
	obj = origin(obj)
	if n, ok := l.decls[obj]; ok && n.Pos() <= id.Pos() && id.Pos() < n.End() {
		return true
	}
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return false
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return false
	}
	for i := 0; i < named.NumMethods(); i++ {
		if n, ok := l.decls[named.Method(i)]; ok && n.Pos() <= id.Pos() && id.Pos() < n.End() {
			return true
		}
	}
	return false
}

// stdCallers declares the interfaces the standard library calls on any
// value it is handed: fmt's, encoding/json's, and the Unwrap that errors.Is
// and errors.As call.
const stdCallers = `package std

import (
	"encoding/json"
	"fmt"
)

type (
	e error
	s fmt.Stringer
	m json.Marshaler
	u json.Unmarshaler
	w interface{ Unwrap() error }
)
`

func (l *loader) stdInterfaces() ([]*types.Interface, error) {
	f, err := parser.ParseFile(l.fset, "std.go", stdCallers, 0)
	if err != nil {
		return nil, err
	}
	pkg, err := (&types.Config{Importer: l.std}).Check("std", l.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	var out []*types.Interface
	for _, name := range pkg.Scope().Names() {
		out = append(out, pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	return out, nil
}

// implementsRead reports whether obj is a method that implements a method
// of one of ifaces.
func implementsRead(obj types.Object, ifaces map[*types.Interface]bool) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	for it := range ifaces {
		if !types.Implements(recv.Type(), it) && !types.Implements(types.NewPointer(recv.Type()), it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				return true
			}
		}
	}
	return false
}

// origin maps a method or function of an instantiated generic back to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// key names obj as unreferenced does.
func (l *loader) key(obj types.Object) string {
	dir := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), l.mod), "/")
	if dir == "" {
		dir = l.mod
	}
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			name = t.(*types.Named).Obj().Name() + "." + name
		}
	}
	return dir + "." + name
}
