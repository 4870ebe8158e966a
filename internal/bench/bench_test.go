package bench

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"leaserelease/internal/coherence"
	"leaserelease/internal/ds"
	"leaserelease/internal/machine"
)

func TestThroughputBasics(t *testing.T) {
	r := ThroughputOpts(machine.DefaultConfig(4), 4, 20_000, 100_000, StackWorkload(ds.StackOptions{Lease: LeaseTime}), Options{})
	if r.Ops == 0 {
		t.Fatal("no ops measured")
	}
	if r.Cycles != 100_000 {
		t.Fatalf("window = %d cycles, want 100000", r.Cycles)
	}
	if r.MopsPerSec <= 0 || r.NJPerOp <= 0 || r.MsgsPerOp <= 0 {
		t.Fatalf("bad derived metrics: %+v", r)
	}
}

func TestThroughputDeterministic(t *testing.T) {
	run := func() Result {
		return ThroughputOpts(machine.DefaultConfig(4), 4, 20_000, 100_000, QueueWorkload(ds.QueueSingleLease), Options{})
	}
	a, b := run(), run()
	if a.Ops != b.Ops || a.Window.TotalMsgs() != b.Window.TotalMsgs() {
		t.Fatalf("nondeterministic benchmark: %v vs %v ops", a.Ops, b.Ops)
	}
}

// goldenParams is the scale of the experiment goldens.
func goldenParams() Params { return Params{Threads: []int{2, 4}, Warm: 20_000, Window: 60_000} }

// TestAllExperimentsRunQuick pins every experiment's output, byte for byte,
// to testdata/experiments/<id>.golden — and fig2, degradation and table1
// again under Tardis — once run serially and once on a worker pool. An
// intentional change regenerates the goldens:
//
//	go test ./internal/bench -run TestAllExperimentsRunQuick -update
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: runs every experiment at quick scale")
	}
	pool := NewPool(3)
	defer pool.Close()
	tardis := map[string]bool{"fig2": true, "degradation": true, "table1": true}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			p := goldenParams()
			checkExperimentGolden(t, e, p, pool, e.ID+".golden")
			if tardis[e.ID] {
				p.Protocol = coherence.ProtocolTardis
				checkExperimentGolden(t, e, p, pool, e.ID+".tardis.golden")
			}
		})
	}
}

// TestCellNamesAreDistinct: a FAILED line names its cell, so at every scale
// each experiment's rows × variants cells have as many names — the
// fixed-work and self-counting cells (Pagerank, TL2, snapshot) included. It
// reads the declarations only; nothing runs.
func TestCellNamesAreDistinct(t *testing.T) {
	// A -threads list in the user's order, 1 not first.
	userOrdered := QuickParams()
	userOrdered.Threads = []int{4, 1}
	for _, scale := range []struct {
		name string
		p    Params
	}{{"golden", goldenParams()}, {"quick", QuickParams()}, {"full", FullParams()}, {"user-ordered", userOrdered}} {
		all := map[string]bool{}
		for _, e := range All() {
			s := e.Sweep(scale.p)
			names := map[string]bool{}
			for _, r := range s.Rows {
				for _, v := range s.Variants {
					names[CellName(e.ID, r, v)] = true
				}
			}
			if cells := len(s.Rows) * len(s.Variants); len(names) != cells {
				t.Errorf("%s scale: %s declares %d cells under %d names", scale.name, e.ID, cells, len(names))
			}
			maps.Copy(all, names)
		}
		if scale.name != "golden" {
			continue
		}
		for _, name := range []string{"fig4-tl2/multi/t4", "fig5-pagerank/lease/t2", "snapshot/dcollect/t4",
			"text-lowcontention/lf-bst/base/t4", "degradation/rate10/lease+ctrl/t4", "protocol-compare/tardis-lease/t2"} {
			if !all[name] {
				t.Errorf("no cell named %q among %d", name, len(all))
			}
		}
	}
}

// checkExperimentGolden runs e twice — on the pool, then serially — and
// compares both outputs with the golden.
func checkExperimentGolden(t *testing.T, e Experiment, p Params, pool *Pool, name string) {
	t.Helper()
	var serial, pooled bytes.Buffer
	p.Pool = pool
	failed := e.Run(&pooled, p)
	p.Pool = nil
	failed = append(failed, e.Run(&serial, p)...)
	if len(failed) > 0 {
		t.Errorf("%s: failed cells: %v", name, failed)
	}
	if !bytes.Equal(serial.Bytes(), pooled.Bytes()) {
		t.Errorf("%s: pooled output differs from serial:\nserial:\n%s\npooled:\n%s", name, &serial, &pooled)
	}
	out := serial.String()
	if !strings.Contains(out, "---") || strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("%s: no table, or NaN/Inf in it:\n%s", name, out)
	}
	golden := filepath.Join("testdata", "experiments", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, serial.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(serial.Bytes(), want) {
		t.Errorf("%s differs from its golden (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s", name, out, want)
	}
}

// find returns the experiment with the given id, as leasebench -exp picks
// it from All.
func find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func TestFindExperiment(t *testing.T) {
	if _, ok := find("fig2"); !ok {
		t.Fatal("fig2 not found")
	}
	if _, ok := find("nope"); ok {
		t.Fatal("bogus id found")
	}
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
}

func TestTableFormatting(t *testing.T) {
	var buf bytes.Buffer
	tb := NewTable("a", "bee")
	tb.Row(1, 2.5)
	tb.Row("long-cell", 3)
	tb.Print(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d, want 4:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "a") || !strings.Contains(lines[0], "bee") {
		t.Fatalf("header wrong: %q", lines[0])
	}
	if !strings.Contains(lines[2], "2.500") {
		t.Fatalf("float formatting wrong: %q", lines[2])
	}
}

// TestFig2Shape verifies the headline result's direction at bench scale:
// leases must win clearly under contention (8 threads) and not lose
// meaningfully without it (1 thread).
func TestFig2Shape(t *testing.T) {
	warm, window := uint64(50_000), uint64(300_000)
	base8 := ThroughputOpts(machine.DefaultConfig(8), 8, warm, window, StackWorkload(ds.StackOptions{}), Options{})
	lease8 := ThroughputOpts(machine.DefaultConfig(8), 8, warm, window, StackWorkload(ds.StackOptions{Lease: LeaseTime}), Options{})
	if lease8.MopsPerSec < 1.2*base8.MopsPerSec {
		t.Fatalf("8-thread lease %.2f vs base %.2f: expected a clear win",
			lease8.MopsPerSec, base8.MopsPerSec)
	}
	base1 := ThroughputOpts(machine.DefaultConfig(1), 1, warm, window, StackWorkload(ds.StackOptions{}), Options{})
	lease1 := ThroughputOpts(machine.DefaultConfig(1), 1, warm, window, StackWorkload(ds.StackOptions{Lease: LeaseTime}), Options{})
	if lease1.MopsPerSec < 0.8*base1.MopsPerSec {
		t.Fatalf("1-thread lease %.2f vs base %.2f: uncontended overhead too high",
			lease1.MopsPerSec, base1.MopsPerSec)
	}
}
