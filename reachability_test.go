package leaserelease

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreferenced lists the exports of internal/ and cmd/ that no non-test code
// names, each with the reason it stays. A key is "Type.Method",
// "package.Func", or a package directory for all of its exports.
var unreferenced = map[string]string{
	"internal/linearize": "the reference checker the structure tests compare histories against",
	"Pagerank.Reference": "the sequential reference the simulated PageRank is compared against",
	"TL2.Read":           "the TL2 tests' oracle",

	"PanicError.Unwrap":       "errors.As and errors.Is call it",
	"RunError.Unwrap":         "errors.As and errors.Is call it",
	"MsgCounts.MarshalJSON":   "encoding/json calls it",
	"MsgCounts.UnmarshalJSON": "encoding/json calls it",

	"Ctx.Fence":             "tests sample Machine.Stats from inside a thread",
	"Ctx.LeaseHeld":         "tests assert which leases a thread holds",
	"Machine.Poke":          "tests plant a word before any line is cached",
	"Allocator.Brk":         "internal/machine's export_test.go walks the arenas with it",
	"Domain.CrossAfter":     "internal/sim's lookahead tests; non-test code uses CrossAt",
	"Config.WithPreemption": "the chaos soak's preemption profiles",
	"locks.NewTAS":          "the lock tests' baseline; experiments start from TTS",
}

// Every function and method that internal/ and cmd/ export has a consumer:
// non-test code somewhere in the module uses its name. What only tests use,
// or only the standard library calls, must be in unreferenced with its
// reason, and unreferenced holds nothing else. Matching is by name, so a method shares its uses with its
// namesakes; what the test rules out is an export nobody could be calling.
func TestExportsAreReached(t *testing.T) {
	type decl struct{ key, pkg, name string }
	var decls []decl
	declared := map[*ast.Ident]bool{}
	uses := map[string]int{}     // name -> uses in non-test files
	testUses := map[string]int{} // name -> uses in _test.go files

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		isTest := strings.HasSuffix(path, "_test.go")
		audited := !isTest && (strings.HasPrefix(path, "internal/") || strings.HasPrefix(path, "cmd/"))
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			declared[fn.Name] = true
			if !audited {
				continue
			}
			owner := file.Name.Name
			if fn.Recv != nil {
				owner = receiverType(fn.Recv.List[0].Type)
			}
			decls = append(decls, decl{owner + "." + fn.Name.Name, filepath.ToSlash(filepath.Dir(path)), fn.Name.Name})
		}
		count := uses
		if isTest {
			count = testUses
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				count[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 200 {
		t.Fatalf("found %d exported functions under internal/ and cmd/: run the test from the module root", len(decls))
	}

	stale := map[string]bool{}
	for k := range unreferenced {
		stale[k] = true
	}
	sort.Slice(decls, func(i, j int) bool { return decls[i].key < decls[j].key })
	for _, d := range decls {
		if uses[d.name] > 0 {
			continue
		}
		key := d.key
		if _, ok := unreferenced[d.pkg]; ok {
			key = d.pkg
		}
		delete(stale, key)
		if _, ok := unreferenced[key]; ok {
			continue
		}
		if testUses[d.name] == 0 {
			t.Errorf("%s (%s) is referenced nowhere in the module: delete it", d.key, d.pkg)
		} else {
			t.Errorf("%s (%s) is referenced by tests only: delete it, or add it to unreferenced with the reason it stays", d.key, d.pkg)
		}
	}
	for k := range stale {
		t.Errorf("unreferenced[%q] is stale: non-test code names it, or it is gone", k)
	}
}

// receiverType names a method's receiver type, without pointer or type
// parameters.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
