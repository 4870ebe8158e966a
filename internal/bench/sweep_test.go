package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"leaserelease/internal/machine"
)

// A failed cell fails its experiment: the sweep's other cells still run and
// print, the failed one is named on a FAILED line under the table, and Run
// returns it with the classified cause and the state dump — on a pool as
// much as serially.
func TestFailedCellFailsItsExperiment(t *testing.T) {
	panicky := func(d *machine.Direct) OpFunc {
		a := d.Alloc(8)
		return func(tid int, c *machine.Ctx) {
			c.Store(a, c.Load(a)+1)
			if c.Now() > 40_000 { // mid-window
				panic("boom")
			}
		}
	}
	e := Experiment{ID: "demo", Paper: "a healthy variant beside one that panics", Sweep: func(p Params) Sweep {
		vs := variants{{Name: "healthy", Build: leaseStack}, {Name: "broken", Build: always(panicky)}}
		return Sweep{Rows: threadRows(p.Threads), Variants: vs,
			Tables: []TableSpec{{Cols: []Col{vs.mops(0), vs.mops(1)}}}}
	}}
	p := Params{Threads: []int{2, 4}, Warm: 20_000, Window: 60_000}

	var serial, pooled bytes.Buffer
	failed := e.Run(&serial, p)
	p.Pool = NewPool(3)
	e.Run(&pooled, p)
	p.Pool.Close()
	if !bytes.Equal(serial.Bytes(), pooled.Bytes()) {
		t.Errorf("pooled output differs from serial:\nserial:\n%s\npooled:\n%s", &serial, &pooled)
	}

	if len(failed) != 2 || failed[0].Cell != "demo/broken/t2" || failed[1].Cell != "demo/broken/t4" {
		t.Fatalf("Run reported %v, want demo/broken/t2 and demo/broken/t4", failed)
	}
	for _, f := range failed {
		if f.Err.Reason != "panic" || !strings.Contains(f.Err.Detail, "boom") || f.Err.Dump == nil {
			t.Errorf("%s: reason %q, detail %q, dump %v; want the panic with a state dump",
				f.Cell, f.Err.Reason, f.Err.Detail, f.Err.Dump != nil)
		}
	}
	out := serial.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("want a header, a rule, two rows and two FAILED lines:\n%s", out)
	}
	for i, n := range []string{"2", "4"} {
		row := strings.Fields(lines[2+i])
		if len(row) != 3 || row[0] != n || row[1] == "0.000" || row[2] != "0.000" {
			t.Errorf("row %q: want %s threads, the healthy cell's throughput and the broken cell's zero", lines[2+i], n)
		}
		if want := "FAILED demo/broken/t" + n + " (panic): "; !strings.HasPrefix(lines[4+i], want) || !strings.Contains(lines[4+i], "boom") {
			t.Errorf("line %q: want prefix %q and the panic value", lines[4+i], want)
		}
	}
}

// DESIGN.md's experiment index (§7) names every experiment: the list in
// All() and the documented one cannot drift apart unnoticed.
func TestDesignIndexNamesEveryExperiment(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(design, []byte("**Experiment index.**"))
	end := bytes.Index(design, []byte("## 8. "))
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no experiment index in §7, before §8")
	}
	index := string(design[start:end])
	for _, e := range All() {
		if !strings.Contains(index, "`leasebench -exp "+e.ID+"`") {
			t.Errorf("DESIGN.md §7 does not list `leasebench -exp %s`", e.ID)
		}
	}
}
