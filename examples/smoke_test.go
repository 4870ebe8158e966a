// Package examples_test runs every program under examples/ and pins what it
// prints: the simulator is deterministic, so each program's stdout is a
// golden, and README.md's quickstart block is one of them.
package examples_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from what the examples print")

// Every example builds, exits 0 and prints its golden.
func TestExamplesPrintTheirGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quickstart through `go run` (≈ 0.5 s)")
	}
	// The quickstart is the one program: each figure of the evaluation runs
	// as a declared experiment of cmd/leasebench (-exp, -cell), not here.
	dirs, err := filepath.Glob("*/main.go")
	if err != nil || len(dirs) != 1 {
		t.Fatalf("found %d example programs (%v), want 1: %v", len(dirs), err, dirs)
	}
	for _, main := range dirs {
		name := filepath.Dir(main)
		t.Run(name, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command("go", "run", "./"+name)
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("go run ./%s: %v\n%s", name, err, &stderr)
			}
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("go run ./%s printed:\n%s\nwant %s (-update rewrites it):\n%s", name, got, golden, want)
			}
		})
	}
}

// README.md shows the quickstart's output; it is the golden's bytes.
func TestReadmeQuickstartIsTheGolden(t *testing.T) {
	readme, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const opening = "go run ./examples/quickstart\n```\n\n```\n"
	_, rest, found := strings.Cut(string(readme), opening)
	block, _, closed := strings.Cut(rest, "```")
	if !found || !closed {
		t.Fatal("README.md has no output block under `go run ./examples/quickstart`")
	}
	want, err := os.ReadFile("testdata/quickstart.golden")
	if err != nil {
		t.Fatal(err)
	}
	if block != string(want) {
		t.Errorf("README.md's quickstart block:\n%s\nwant testdata/quickstart.golden:\n%s", block, want)
	}
}
