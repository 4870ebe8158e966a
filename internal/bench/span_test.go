package bench

import (
	"reflect"
	"testing"

	"leaserelease/internal/machine"
	"leaserelease/internal/telemetry"
)

// keepSpans enables spans on rec and returns where every span its assembler
// completes is copied: an OnComplete set before Attach, which the recorder
// keeps.
func keepSpans(rec *telemetry.Recorder) *[]telemetry.Span {
	kept := new([]telemetry.Span)
	rec.EnableSpans().OnComplete = func(s *telemetry.Span) { *kept = append(*kept, *s) }
	return kept
}

// spanRun runs a leased contended counter with span tracing and returns the
// result, the assembler and every completed span.
func spanRun(t *testing.T, seed uint64, threads int) (Result, *telemetry.Spans, []telemetry.Span) {
	t.Helper()
	cfg := machine.DefaultConfig(threads)
	cfg.Seed = seed
	rec := telemetry.NewRecorder()
	kept := keepSpans(rec)
	r := ThroughputOpts(cfg, threads, 20_000, 100_000,
		CounterWorkload(CounterLeasedTTS), Options{Recorder: rec})
	if r.Err != nil {
		t.Fatalf("run failed: %v", r.Err)
	}
	return r, rec.Spans, *kept
}

// The acceptance invariant of the cycle accounting, on the paper's
// contended-counter workload: every completed span's phases partition its
// latency exactly, and the operation roll-up accounts for 100% of measured
// operation latency (OpCycles == OpTxnCycles + OpOtherCycles, with the
// txn part equal to the per-phase sum).
func TestSpanCycleAccountingSumsToLatency(t *testing.T) {
	r, sp, completed := spanRun(t, 1, 8)

	if len(completed) == 0 {
		t.Fatal("no spans completed on a contended run")
	}
	for _, s := range completed {
		var sum uint64
		for _, c := range s.Phases {
			sum += c
		}
		if sum != s.Total() {
			t.Fatalf("span %#x: phases %v sum to %d, want total %d",
				s.ID, s.Phases, sum, s.Total())
		}
	}

	st := sp.Stats()
	if st.Spans == 0 || st.Deferred == 0 {
		t.Fatalf("stats %+v: want spans and deferrals on a leased contended counter", st)
	}
	var phaseSum uint64
	for _, c := range st.Phase {
		phaseSum += c
	}
	if phaseSum != st.SpanCycles {
		t.Errorf("aggregate phases sum to %d, want SpanCycles %d", phaseSum, st.SpanCycles)
	}

	if st.Ops == 0 {
		t.Fatal("no measured operations attributed")
	}
	if st.OpCycles != st.OpTxnCycles+st.OpOtherCycles {
		t.Errorf("OpCycles %d != OpTxnCycles %d + OpOtherCycles %d",
			st.OpCycles, st.OpTxnCycles, st.OpOtherCycles)
	}
	var opPhaseSum uint64
	for _, c := range st.OpPhase {
		opPhaseSum += c
	}
	if opPhaseSum != st.OpTxnCycles {
		t.Errorf("sum(OpPhase) %d != OpTxnCycles %d", opPhaseSum, st.OpTxnCycles)
	}

	// The result carries the summary for reports and tables.
	if r.Txns == nil || r.Txns.Count != st.Spans || r.Txns.OpPhases == nil {
		t.Errorf("Result.Txns = %+v, want the run's summary", r.Txns)
	}
}

// Span tracing must not perturb the simulation, which is what keeps benchmark
// tables byte-identical with tracing on and off; a traced run, and only a
// traced run, reports txn_accounting.
func TestSpanTracingDoesNotPerturbSimulation(t *testing.T) {
	checkUnperturbed(t, perturbObserver{"spans", func(r *telemetry.Recorder) { r.EnableSpans() }, Options{}})
}

// The reconstructed span trees are part of the determinism contract: a
// sweep of cells produces identical spans for every -parallel worker
// count (cells own private machines; host scheduling cannot leak in).
func TestSpanTreesIdenticalAcrossPoolSizes(t *testing.T) {
	sweep := func(workers int) [][]telemetry.Span {
		pool := NewPool(workers)
		defer pool.Close()
		seeds := []uint64{1, 2, 3, 4}
		futures := make([]*future[[]telemetry.Span], len(seeds))
		for i, seed := range seeds {
			seed := seed
			futures[i] = goCell(pool, func() []telemetry.Span {
				cfg := machine.DefaultConfig(4)
				cfg.Seed = seed
				rec := telemetry.NewRecorder()
				kept := keepSpans(rec)
				r := ThroughputOpts(cfg, 4, 10_000, 40_000,
					CounterWorkload(CounterLeasedTTS), Options{Recorder: rec})
				if r.Err != nil {
					t.Errorf("seed %d failed: %v", seed, r.Err)
				}
				return *kept
			})
		}
		out := make([][]telemetry.Span, len(futures))
		for i, f := range futures {
			out[i] = f.get()
		}
		return out
	}

	serial := sweep(1)
	parallel := sweep(4)
	for i := range serial {
		if len(serial[i]) == 0 {
			t.Fatalf("cell %d completed no spans", i)
		}
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("cell %d span trees differ between -parallel 1 and 4", i)
		}
	}
}
