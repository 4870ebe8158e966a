package bench

import (
	"reflect"
	"testing"

	"leaserelease/internal/machine"
	"leaserelease/internal/telemetry"
)

// ledgerRun is one measured leased-counter run with both the ledger and
// the span assembler attached, so the two accountings can be reconciled.
type ledgerRun struct {
	result Result
	lines  []telemetry.LineLedger
	totals telemetry.LedgerTotals
	defer_ uint64 // span assembler probe-defer phase total
}

func runLedgerCell(t *testing.T, seed uint64, threads int) ledgerRun {
	t.Helper()
	cfg := machine.DefaultConfig(threads)
	cfg.Seed = seed
	rec := telemetry.NewRecorder()
	sp := rec.EnableSpans()
	ld := rec.EnableLedger()
	r := ThroughputOpts(cfg, threads, 20_000, 100_000,
		CounterWorkload(CounterLeasedTTS), Options{Recorder: rec})
	if r.Err != nil {
		t.Fatalf("seed %d run failed: %v", seed, r.Err)
	}
	return ledgerRun{
		result: r,
		lines:  ld.Lines(),
		totals: ld.Totals(),
		defer_: sp.Stats().Phase[telemetry.PhaseDefer],
	}
}

// The ledger's two conservation identities on real leased-counter runs,
// exact per seed: every line's granted cycles partition into used plus
// unused, and the total deferral the ledger charges to lines equals the
// span assembler's probe-defer phase total (same windowing, same
// completed-transactions-only fold).
func TestLedgerConservationRealRuns(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		run := runLedgerCell(t, seed, 8)
		if run.totals.Leases == 0 {
			t.Fatalf("seed %d: no leases closed on a leased contended counter", seed)
		}
		for _, s := range run.lines {
			if s.GrantedCycles != s.UsedCycles+s.UnusedCycles {
				t.Errorf("seed %d line %#x: granted %d != used %d + unused %d",
					seed, uint64(s.Line), s.GrantedCycles, s.UsedCycles, s.UnusedCycles)
			}
		}
		if run.totals.DeferInflictedCycles != run.defer_ {
			t.Errorf("seed %d: ledger defer-inflicted %d != span probe-defer phase %d",
				seed, run.totals.DeferInflictedCycles, run.defer_)
		}
		if run.result.LeaseLedger == nil {
			t.Fatalf("seed %d: Result.LeaseLedger not populated", seed)
		}
		if got := run.result.LeaseLedger.LedgerTotals; got != run.totals {
			t.Errorf("seed %d: summary totals %+v != ledger totals %+v", seed, got, run.totals)
		}
	}
}

// The ledger is part of the determinism contract: a sweep of cells
// produces identical per-line ledgers for every -parallel worker count.
func TestLedgerIdenticalAcrossPoolSizes(t *testing.T) {
	sweep := func(workers int) []ledgerRun {
		pool := NewPool(workers)
		defer pool.Close()
		seeds := []uint64{1, 2, 3, 4}
		futures := make([]*future[ledgerRun], len(seeds))
		for i, seed := range seeds {
			seed := seed
			futures[i] = goCell(pool, func() ledgerRun {
				return runLedgerCell(t, seed, 4)
			})
		}
		out := make([]ledgerRun, len(futures))
		for i, f := range futures {
			out[i] = f.get()
		}
		return out
	}

	serial := sweep(1)
	parallel := sweep(4)
	for i := range serial {
		if len(serial[i].lines) == 0 {
			t.Fatalf("cell %d recorded no ledger lines", i)
		}
		if !reflect.DeepEqual(serial[i].lines, parallel[i].lines) {
			t.Fatalf("cell %d per-line ledgers differ between -parallel 1 and 4:\n%+v\n%+v",
				i, serial[i].lines, parallel[i].lines)
		}
		if !reflect.DeepEqual(serial[i].result.LeaseLedger, parallel[i].result.LeaseLedger) {
			t.Fatalf("cell %d ledger summaries differ between -parallel 1 and 4", i)
		}
	}
}

// The ledger must not perturb the simulation: the measured window is
// identical with the ledger on and off, and a run without the ledger
// reports no LeaseLedger.
func TestLedgerDoesNotPerturbSimulation(t *testing.T) {
	run := func(ledger bool) Result {
		cfg := machine.DefaultConfig(8)
		cfg.Seed = 3
		rec := telemetry.NewRecorder()
		if ledger {
			rec.EnableLedger()
		}
		return ThroughputOpts(cfg, 8, 20_000, 100_000,
			CounterWorkload(CounterLeasedTTS), Options{Recorder: rec})
	}
	plain := run(false)
	ledgered := run(true)

	if plain.Ops != ledgered.Ops {
		t.Errorf("ops changed with ledger: %d vs %d", plain.Ops, ledgered.Ops)
	}
	if plain.Window != ledgered.Window {
		t.Errorf("window stats changed with ledger:\n%+v\n%+v", plain.Window, ledgered.Window)
	}
	if !reflect.DeepEqual(plain.OpLatency, ledgered.OpLatency) {
		t.Errorf("op-latency histogram changed with ledger:\n%+v\n%+v",
			plain.OpLatency, ledgered.OpLatency)
	}
	if ledgered.LeaseLedger == nil || ledgered.LeaseLedger.Leases == 0 {
		t.Error("ledgered run produced no lease accounting")
	}
	if plain.LeaseLedger != nil {
		t.Error("plain run produced lease accounting")
	}
}

// A ledger line the hot-line profiler never saw joins with zero counters,
// and the join makes no hot-line entry: leasesim's "top N of M" keeps M.
func TestLedgerRowsLeaveHotLinesAlone(t *testing.T) {
	rec := telemetry.NewRecorder()
	seen := rec.Lines.Get(0x10)
	seen.Msgs, seen.Invals = 7, 2
	rows := LedgerRows([]telemetry.LedgerLineSummary{
		{Addr: 0x10, Line: "0x10", Leases: 1},
		{Addr: 0x20, Line: "0x20", Leases: 3},
	}, rec)
	if len(rows) != 2 || rows[0].HotScore != 9 || rows[0].Msgs != 7 || rows[0].Invals != 2 {
		t.Fatalf("seen line joined as %+v", rows)
	}
	if r := rows[1]; r.HotScore != 0 || r.Msgs != 0 || r.Invals != 0 || r.Leases != 3 {
		t.Errorf("unseen line joined as %+v, want zero counters", r)
	}
	if n := rec.Lines.Len(); n != 1 {
		t.Errorf("hot lines = %d after the join, want 1", n)
	}
}
