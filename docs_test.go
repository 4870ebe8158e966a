package leaserelease

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	backQuoted = regexp.MustCompile("`([^`\n]+)`")
	testFunc   = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// A cited test: optionally package-qualified, optionally followed by a
	// sub-benchmark path, a trailing * for a prefix.
	citedTest = regexp.MustCompile(`^(?:\w+\.)?((?:Test|Benchmark|Fuzz)[A-Z]\w*)(\*)?(?:/.*)?$`)
	citedGo   = regexp.MustCompile(`^[\w./-]*\w\.go$`)
	citedJSON = regexp.MustCompile(`^BENCH_[\w*]+\.json$`)
)

// README.md, DESIGN.md and EXPERIMENTS.md cite only what exists: every
// back-quoted test, benchmark or fuzz name (a trailing * makes it a prefix),
// every path under internal/, cmd/, examples/ or benchmarks/ (a
// pkg/path.Symbol form is checked up to the dot), and every *.go or
// BENCH_*.json file name is in the tree. A word of a back-quoted command
// counts like a span of its own.
func TestDocsCiteWhatExists(t *testing.T) {
	var files []string // slash-separated, relative to the module root
	tests := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		files = append(files, filepath.ToSlash(path))
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFunc.FindAllSubmatch(src, -1) {
				tests[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tests) < 300 {
		t.Fatalf("found %d test functions: run the test from the module root", len(tests))
	}
	hasTest := func(name string, prefix bool) bool {
		if !prefix {
			return tests[name]
		}
		for have := range tests {
			if strings.HasPrefix(have, name) {
				return true
			}
		}
		return false
	}
	hasFile := func(name string) bool {
		for _, f := range files {
			if f == name || strings.HasSuffix(f, "/"+name) {
				return true
			}
		}
		return false
	}
	// hasPath reports whether a cited path exists, as it stands (a * globs)
	// or up to the dot of a pkg/path.Symbol form.
	hasPath := func(p string) bool {
		if m, _ := filepath.Glob(p); len(m) > 0 {
			return true
		}
		dir, last := filepath.Split(p)
		pkg, _, symbol := strings.Cut(last, ".")
		_, err := os.Stat(dir + pkg)
		return symbol && err == nil
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		cited := 0
		for _, span := range backQuoted.FindAllSubmatch(text, -1) {
			for _, word := range strings.Fields(string(span[1])) {
				word = strings.TrimRight(strings.TrimPrefix(word, "./"), ".,;:")
				ok := true
				switch m := citedTest.FindStringSubmatch(word); {
				case m != nil:
					ok = hasTest(m[1], m[2] != "")
				case strings.HasPrefix(word, "internal/"), strings.HasPrefix(word, "cmd/"),
					strings.HasPrefix(word, "examples/"), strings.HasPrefix(word, "benchmarks/"):
					ok = hasPath(word)
				case citedGo.MatchString(word):
					ok = hasFile(word)
				case citedJSON.MatchString(word):
					ok = hasPath(word)
				default:
					continue
				}
				cited++
				if !ok {
					t.Errorf("%s cites `%s`, which is not in the tree", doc, word)
				}
			}
		}
		if cited == 0 {
			t.Errorf("%s cites nothing this test checks", doc)
		}
	}
}
