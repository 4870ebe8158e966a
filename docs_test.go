package leaserelease

import (
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"leaserelease/internal/bench"
)

var (
	backQuoted = regexp.MustCompile("`([^`\n]+)`")
	testFunc   = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// A cited test: optionally package-qualified, optionally followed by a
	// sub-benchmark path, a trailing * for a prefix.
	citedTest = regexp.MustCompile(`^(?:\w+\.)?((?:Test|Benchmark|Fuzz)[A-Z]\w*)(\*)?(?:/.*)?$`)
	citedGo   = regexp.MustCompile(`^[\w./-]*\w\.go$`)
	citedJSON = regexp.MustCompile(`^BENCH_[\w*]+\.json$`)
	// A flag registration: fs.Bool("lease", …) or fs.StringVar(&h.Protocol, "protocol", …).
	flagDecl = regexp.MustCompile(`\bfs\.\w+\((?:&[\w.]+, )?"([\w-]+)"`)
	// A span of a paragraph: back-quoted text that may break across lines.
	paraSpan = regexp.MustCompile("`([^`]+)`")
)

// designMaxBytes bounds DESIGN.md, which describes the system as it is: a
// replaced design is a pointer to CHANGES.md, and a measured-and-rejected
// one keeps a sentence with its number.
const designMaxBytes = 37000

func TestDesignStaysShort(t *testing.T) {
	info, err := os.Stat("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := info.Size(); n > designMaxBytes {
		t.Errorf("DESIGN.md is %d bytes, over its %d: move the history to CHANGES.md", n, designMaxBytes)
	}
}

// README.md, DESIGN.md and EXPERIMENTS.md cite only what exists: every
// back-quoted test, benchmark or fuzz name (a trailing * makes it a prefix),
// every path under internal/, cmd/, examples/ or benchmarks/ (a
// pkg/path.Symbol form is checked up to the dot), and every *.go or
// BENCH_*.json file name is in the tree. A word of a back-quoted command
// counts like a span of its own. Every -flag of a leasebench command they
// cite is one the binary registers, every -cell pattern matches a declared
// cell at the command's scale and -threads, and no command runs the removed
// leasesim.
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

	flags := leasebenchFlags(t)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cmd := range docCommands(string(text)) {
			if bin := path.Base(cmd[0]); bin != "leasebench" {
				t.Errorf("%s cites `%s`, but %s is gone: a cell runs as leasebench -cell", doc, strings.Join(cmd, " "), bin)
				continue
			}
			for _, word := range cmd[1:] {
				name, _, _ := strings.Cut(strings.TrimLeft(word, "-"), "=")
				if len(word) > 1 && word[0] == '-' && unicode.IsLetter(rune(word[1])) && !flags[name] {
					t.Errorf("%s cites `%s`, but leasebench has no -%s", doc, strings.Join(cmd, " "), name)
				}
			}
			if err := cellsExist(cmd); err != nil {
				t.Errorf("%s cites `%s`: %v", doc, strings.Join(cmd, " "), err)
			}
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

// cellsExist reports a -cell pattern of a cited command that matches no
// declared cell at the command's scale (-quick) and -threads.
func cellsExist(cmd []string) error {
	arg := func(flag string) (string, bool) {
		for i, w := range cmd[:len(cmd)-1] {
			if w == flag {
				return strings.Trim(cmd[i+1], `'"`), true
			}
		}
		return "", false
	}
	pattern, ok := arg("-cell")
	if !ok {
		return nil
	}
	p := bench.FullParams()
	if slices.Contains(cmd, "-quick") {
		p = bench.QuickParams()
	}
	if list, ok := arg("-threads"); ok {
		p.Threads = nil
		for _, f := range strings.Split(list, ",") {
			n, err := strconv.Atoi(f)
			if err != nil {
				return fmt.Errorf("bad -threads %q", list)
			}
			p.Threads = append(p.Threads, n)
		}
	}
	cells, err := bench.Cells(bench.All(), p, pattern)
	if err == nil && len(cells) == 0 {
		err = fmt.Errorf("-cell %q matches no declared cell at -threads %v", pattern, p.Threads)
	}
	return err
}

// leasebenchFlags returns the flags leasebench registers, read from the
// registrations in its main.go and, for the host flags, in
// internal/bench/host.go.
func leasebenchFlags(t *testing.T) map[string]bool {
	t.Helper()
	flags := map[string]bool{"h": true, "help": true} // the flag package's own
	for _, file := range []string{"cmd/leasebench/main.go", "internal/bench/host.go"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagDecl.FindAllSubmatch(src, -1) {
			flags[string(m[1])] = true
		}
	}
	if len(flags) < 10 {
		t.Fatalf("leasebench registers %d flags: the registration pattern no longer matches", len(flags))
	}
	return flags
}

// docCommands returns the leasebench commands a Markdown document cites,
// and those of the removed leasesim, each as its words from the binary on
// to the end of the command: a code line (fenced, or indented by four
// spaces; a trailing \ continues it) that starts with one, bare or under
// `go run`, and a back-quoted span that holds one anywhere.
func docCommands(doc string) [][]string {
	var cmds [][]string
	// command returns the command that starts at words[i], if one does: a
	// bare binary, or ./cmd/<binary> after go run.
	command := func(words []string, i int) []string {
		w := strings.TrimPrefix(words[i], "./")
		if bin := path.Base(w); bin != "leasesim" && bin != "leasebench" ||
			strings.HasPrefix(w, "cmd/") && (i < 2 || words[i-2] != "go" || words[i-1] != "run") {
			return nil
		}
		end := i + 1
		for end < len(words) && !strings.ContainsAny(words[end][:1], "|&;#<>") && !strings.HasPrefix(words[end], "2>") {
			end++
		}
		return words[i:end]
	}
	var prose strings.Builder
	fenced := false
	lines := strings.Split(doc, "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			prose.WriteString("\n")
			continue
		}
		if fenced {
			prose.WriteString("\n")
		} else {
			prose.WriteString(line + "\n") // an indented line may be prose
			if !strings.HasPrefix(line, "    ") && !strings.HasPrefix(line, "\t") {
				continue
			}
		}
		for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(line, "\\") + " " + lines[i]
		}
		words, start := strings.Fields(line), 0
		if len(words) > 2 && words[0] == "go" && words[1] == "run" {
			start = 2
		}
		if len(words) > start {
			if cmd := command(words, start); cmd != nil {
				cmds = append(cmds, cmd)
			}
		}
	}
	for _, para := range strings.Split(prose.String(), "\n\n") {
		for _, span := range paraSpan.FindAllStringSubmatch(para, -1) {
			words := strings.Fields(span[1])
			for i := range words {
				if cmd := command(words, i); cmd != nil {
					cmds = append(cmds, cmd)
				}
			}
		}
	}
	return cmds
}
