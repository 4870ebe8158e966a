package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"leaserelease/internal/coherence"
	"leaserelease/internal/machine"
	"leaserelease/internal/sim"
)

// The nil hub is inert: every method is safe and free so call sites need
// no enablement checks.
func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.SetPool(nil)
	p.AddSimCycles(10)
	c := p.Cell("x")
	if c != nil {
		t.Fatal("nil hub returned a non-nil cell")
	}
	c.Start()
	c.AddSimCycles(5)
	c.ObserveEngine(sim.EngineStats{})
	c.Done()
	s := p.Snapshot()
	if s.CellsTotal != 0 || s.SimCycles != 0 {
		t.Errorf("nil hub snapshot = %+v, want zero", s)
	}
}

// Cell lifecycle and the aggregate counter: cells progress pending ->
// running -> done and their cycles credit both the cell and the total.
func TestProgressCellLifecycle(t *testing.T) {
	p := NewProgress()
	a := p.Cell("counter/t2")
	b := p.Cell("counter/t4")

	a.Start()
	a.AddSimCycles(100)
	a.Done()
	b.Start()
	b.AddSimCycles(250)

	s := p.Snapshot()
	if s.CellsTotal != 2 || s.CellsDone != 1 || s.CellsRunning != 1 {
		t.Errorf("snapshot = %+v, want 2 cells, 1 done, 1 running", s)
	}
	if s.SimCycles != 350 {
		t.Errorf("aggregate cycles = %d, want 350", s.SimCycles)
	}
	byName := map[string]CellSnapshot{}
	for _, c := range s.Cells {
		byName[c.Name] = c
	}
	if byName["counter/t2"].State != "done" || byName["counter/t2"].SimCycles != 100 {
		t.Errorf("cell a = %+v", byName["counter/t2"])
	}
	if byName["counter/t4"].State != "running" || byName["counter/t4"].SimCycles != 250 {
		t.Errorf("cell b = %+v", byName["counter/t4"])
	}
	// Serial run: nil pool reports one inline worker, none busy.
	if s.PoolWorkers != 1 || s.PoolBusy != 0 {
		t.Errorf("nil-pool occupancy = %d/%d, want 1/0", s.PoolBusy, s.PoolWorkers)
	}
}

// The Prometheus rendering carries every metric family plus per-cell
// series with stable labels.
func TestProgressPromText(t *testing.T) {
	p := NewProgress()
	c := p.Cell("fig2/t8")
	c.Start()
	c.AddSimCycles(42)
	text := p.Snapshot().promText()
	for _, want := range []string{
		"leasesim_cells_total 1",
		"leasesim_cells_running 1",
		"leasesim_cells_done 0",
		"leasesim_pool_workers 1",
		"leasesim_pool_busy 0",
		"leasesim_sim_cycles_total 42",
		"leasesim_sim_cycles_per_second",
		`name="fig2/t8",state="running"} 42`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom text missing %q:\n%s", want, text)
		}
	}
}

// Serve binds a real listener; /progress serves the JSON snapshot and
// /metrics the Prometheus text.
func TestProgressServeEndpoints(t *testing.T) {
	p := NewProgress()
	cell := p.Cell("fig3/t4")
	cell.Start()
	cell.AddSimCycles(7)

	addr, err := p.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	get := func(addr, path string) []byte {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap Snapshot
	if err := json.Unmarshal(get(addr, "/progress"), &snap); err != nil {
		t.Fatalf("/progress is not JSON: %v", err)
	}
	if snap.CellsTotal != 1 || snap.SimCycles != 7 {
		t.Errorf("/progress = %+v, want 1 cell, 7 cycles", snap)
	}
	if !strings.Contains(string(get(addr, "/metrics")), "leasesim_sim_cycles_total 7") {
		t.Error("/metrics missing the cycle counter")
	}

	// Two hubs served by one process are independent: each lists only its
	// own cells.
	p2 := NewProgress()
	p2.Cell("fig4/t2")
	addr2, err := p2.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var snap2 Snapshot
	if err := json.Unmarshal(get(addr2, "/progress"), &snap2); err != nil {
		t.Fatalf("second hub's /progress is not JSON: %v", err)
	}
	if len(snap2.Cells) != 1 || snap2.Cells[0].Name != "fig4/t2" {
		t.Errorf("second hub's /progress lists %+v, want only fig4/t2", snap2.Cells)
	}
}

// Cells wired to a served hub surface the event kernel's host-side counters
// on /metrics: all six present and parseable, and each the sum over the
// cells of what the cell's machine reports — here a run-ahead MSI cell and
// a Tardis cell, which skips no Sync. This is the live-scrape contract of
// `leasesim -serve`.
func TestProgressMetricsEngineCounters(t *testing.T) {
	p := NewProgress()
	addr, err := p.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	var want sim.EngineStats
	for _, proto := range []string{coherence.ProtocolMSI, coherence.ProtocolTardis} {
		cfg := machine.DefaultConfig(8)
		cfg.Protocol = proto
		cell := p.Cell("counter/t8/" + proto)
		cell.Start()
		var m *machine.Machine
		r := ThroughputOpts(cfg, 8, 20_000, 60_000, CounterWorkload(CounterLeasedTTS),
			Options{Progress: cell,
				Hooks: []func(*machine.Machine){func(mm *machine.Machine) { m = mm }}})
		cell.Done()
		if r.Err != nil {
			t.Fatalf("%s cell failed: %v", proto, r.Err)
		}
		want.Add(m.EngineStats())
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	counter := func(name string) uint64 {
		t.Helper()
		for _, line := range strings.Split(text, "\n") {
			if fields := strings.Fields(line); len(fields) == 2 && fields[0] == name {
				v, err := strconv.ParseUint(fields[1], 10, 64)
				if err != nil {
					t.Fatalf("%s: unparseable value in %q: %v", name, line, err)
				}
				return v
			}
		}
		t.Fatalf("/metrics missing %s:\n%s", name, text)
		return 0
	}
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"leasesim_engine_events_total", want.EventsTotal},
		{"leasesim_engine_proc_switches_total", want.ProcSwitches},
		{"leasesim_engine_own_wakes_total", want.OwnWakes},
		{"leasesim_engine_sync_fast_forwards_total", want.SyncFastForwards},
		{"leasesim_engine_sync_wakes_total", want.SyncWakes},
		{"leasesim_engine_syncs_skipped_total", want.SyncsSkipped},
		{"leasesim_engine_ring_events_total", want.RingEvents},
		{"leasesim_engine_bucket_events_total", want.BucketEvents},
		{"leasesim_engine_heap_events_total", want.HeapEvents},
		{"leasesim_engine_bucket_overflows_total", want.BucketOverflows},
		{"leasesim_engine_max_pending", want.MaxPending},
	} {
		if got := counter(c.name); got != c.want {
			t.Errorf("%s = %d, want %d (the sum over both cells; for max_pending, the larger)", c.name, got, c.want)
		}
	}
	if want.EventsTotal == 0 || want.SyncsSkipped == 0 {
		t.Errorf("cells executed %d events and skipped %d syncs; the test is vacuous", want.EventsTotal, want.SyncsSkipped)
	}
}

// Pool occupancy: Running tracks cells mid-execution and returns to zero;
// Workers reports the fixed pool size (and the serial conventions on nil).
func TestPoolOccupancy(t *testing.T) {
	pool := NewPool(2)
	defer pool.Close()
	if pool.Workers() != 2 {
		t.Fatalf("Workers() = %d, want 2", pool.Workers())
	}

	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(2)
	futures := []*Future[int]{
		Go(pool, func() int { started.Done(); <-release; return 1 }),
		Go(pool, func() int { started.Done(); <-release; return 2 }),
	}
	started.Wait()
	if got := pool.Running(); got != 2 {
		t.Errorf("Running() = %d while both cells block, want 2", got)
	}
	close(release)
	for _, f := range futures {
		f.Get()
	}
	var nilPool *Pool
	if nilPool.Workers() != 1 || nilPool.Running() != 0 {
		t.Errorf("nil pool = %d workers, %d running; want 1, 0",
			nilPool.Workers(), nilPool.Running())
	}
}
