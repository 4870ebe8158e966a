package bench

import (
	"fmt"
	"reflect"
	"testing"

	"leaserelease/internal/coherence"
	"leaserelease/internal/faults"
	"leaserelease/internal/machine"
	"leaserelease/internal/telemetry"
)

// ledgerRun is one measured leased-counter run with the ledger and the span
// assembler beside it, so the two accountings can be reconciled.
type ledgerRun struct {
	result Result
	lines  []telemetry.LineLedger
	totals telemetry.LedgerTotals
	defer_ uint64 // span assembler probe-defer phase total
}

func runLedgerCell(t *testing.T, cfg machine.Config, threads int) ledgerRun {
	t.Helper()
	rec := telemetry.NewRecorder()
	r := ThroughputOpts(cfg, threads, 20_000, 100_000,
		CounterWorkload(CounterLeasedTTS), Options{Recorder: rec})
	if r.Err != nil {
		t.Fatalf("seed %d run failed: %v", cfg.Seed, r.Err)
	}
	return ledgerRun{
		result: r,
		lines:  rec.Ledger.Lines(),
		totals: rec.Ledger.Totals(),
		defer_: rec.Spans.Stats().Phase[telemetry.PhaseDefer],
	}
}

// faultedConfig is the default machine on a protocol, with or without fault
// injection.
func faultedConfig(threads int, seed uint64, protocol string, faulted bool) machine.Config {
	cfg := machine.DefaultConfig(threads)
	cfg.Seed = seed
	cfg.Protocol = protocol
	if faulted {
		cfg.Faults = faults.DefaultConfig()
		cfg.Faults.Seed = seed
	}
	return cfg
}

// The ledger's two conservation identities on real leased-counter runs,
// exact per seed, under both protocols and with faults injected: every
// line's granted cycles partition into used plus unused, and the total
// deferral the ledger charges to lines equals the span assembler's
// probe-defer phase total (same windowing, same completed spans).
func TestLedgerConservationRealRuns(t *testing.T) {
	for _, protocol := range coherence.Protocols() {
		for _, faulted := range []bool{false, true} {
			for _, seed := range []uint64{1, 2} {
				name := fmt.Sprintf("%s/faults=%v/seed %d", protocol, faulted, seed)
				run := runLedgerCell(t, faultedConfig(8, seed, protocol, faulted), 8)
				if run.totals.Leases == 0 {
					t.Fatalf("%s: no leases closed on a leased contended counter", name)
				}
				for _, s := range run.lines {
					if s.GrantedCycles != s.UsedCycles+s.UnusedCycles {
						t.Errorf("%s line %#x: granted %d != used %d + unused %d",
							name, uint64(s.Line), s.GrantedCycles, s.UsedCycles, s.UnusedCycles)
					}
				}
				if run.totals.DeferInflictedCycles != run.defer_ || run.defer_ == 0 {
					t.Errorf("%s: ledger defer-inflicted %d != span probe-defer phase %d, or both zero",
						name, run.totals.DeferInflictedCycles, run.defer_)
				}
				if run.result.LeaseLedger == nil {
					t.Fatalf("%s: Result.LeaseLedger not populated", name)
				}
				if got := run.result.LeaseLedger.LedgerTotals; got != run.totals {
					t.Errorf("%s: summary totals %+v != ledger totals %+v", name, got, run.totals)
				}
			}
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
				return runLedgerCell(t, faultedConfig(4, seed, coherence.ProtocolMSI, false), 4)
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

// The ledger must not perturb a faulted run either, whose early expiries and
// stalls it accounts; a recorded run, and only it, reports lease_ledger.
func TestLedgerDoesNotPerturbSimulation(t *testing.T) {
	checkUnperturbed(t, faultedConfig(8, 3, coherence.ProtocolMSI, true), bareRecorder)
}
