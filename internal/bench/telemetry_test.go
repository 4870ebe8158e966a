package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"leaserelease/internal/coherence"
	"leaserelease/internal/ds"
	"leaserelease/internal/machine"
	"leaserelease/internal/telemetry"
)

func telemetryRun(t *testing.T, seed uint64) (Result, *telemetry.Recorder, []byte) {
	t.Helper()
	cfg := machine.DefaultConfig(8)
	cfg.Seed = seed
	rec := telemetry.NewRecorder()
	rec.EnableTimeline(float64(cfg.ClockHz) / 1e6)
	r := ThroughputOpts(cfg, 8, 20_000, 80_000,
		StackWorkload(ds.StackOptions{Lease: 20_000}),
		Options{Recorder: rec, HotLines: 8})
	var buf bytes.Buffer
	if err := rec.Timeline.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return r, rec, buf.Bytes()
}

// Telemetry output is part of the experiment's reproducibility contract:
// two runs with the same seed must produce identical histograms, identical
// hot-line rankings and a byte-for-byte identical timeline file.
func TestTelemetryDeterministicAcrossRuns(t *testing.T) {
	r1, rec1, tl1 := telemetryRun(t, 7)
	r2, rec2, tl2 := telemetryRun(t, 7)

	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("Result differs between same-seed runs:\n%+v\n%+v", r1, r2)
	}
	if rec1.OpLatency != rec2.OpLatency || rec1.LeaseHold != rec2.LeaseHold ||
		rec1.ProbeDefer != rec2.ProbeDefer || rec1.DirQueue != rec2.DirQueue {
		t.Error("raw histograms differ between same-seed runs")
	}
	top1, top2 := r1.HotLines, r2.HotLines
	if !reflect.DeepEqual(top1, top2) {
		t.Errorf("hot-line ranking differs:\n%v\n%v", top1, top2)
	}
	if !bytes.Equal(tl1, tl2) {
		t.Error("timeline JSON differs between same-seed runs")
	}
	if r1.OpLatency == nil || r1.OpLatency.Count == 0 {
		t.Error("op-latency histogram empty; wrapper not observing")
	}
	if r1.LeaseHold == nil || r1.LeaseHold.Count == 0 {
		t.Error("lease-hold histogram empty on a leased stack run")
	}
	if len(top1) == 0 || top1[0].Score == 0 {
		t.Error("hot-line profile empty on a contended run")
	}
	var parsed struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(tl1, &parsed); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Error("timeline has no trace events")
	}
}

// A different seed must actually change the measurement — otherwise the
// determinism test above is vacuous.
func TestTelemetrySeedSensitivity(t *testing.T) {
	r1, _, _ := telemetryRun(t, 7)
	r2, _, _ := telemetryRun(t, 8)
	if r1.Ops == r2.Ops && reflect.DeepEqual(r1.OpLatency, r2.OpLatency) {
		t.Error("seeds 7 and 8 produced identical ops and latency histogram")
	}
}

// Observing a run must not perturb it: for each workload, every observer set
// measures the plain run's window (ops, every hardware counter, fairness) and
// its whole engine_stats, every recorder the same op latencies as a bare
// recorder, and each run reports exactly the sections its observers fill.
// Two tests hold a recorder to this under Tardis and under fault injection.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	checkUnperturbed(t, faultedConfig(8, 3, coherence.ProtocolMSI, false), bareRecorder,
		perturbObserver{"timeline", func(r *telemetry.Recorder) { r.EnableTimeline(1000) }, Options{}},
		perturbObserver{"hotlines", func(*telemetry.Recorder) {}, Options{HotLines: 8}},
		perturbObserver{"invariants", nil, Options{Invariants: true}})
}

// perturbObserver is one way of watching a run: a recorder with some parts
// enabled (enable nil: no recorder) plus run options.
type perturbObserver struct {
	name   string
	enable func(*telemetry.Recorder)
	o      Options
}

var bareRecorder = perturbObserver{"recorder", func(*telemetry.Recorder) {}, Options{}}

// checkUnperturbed runs each perturbation workload on cfg plainly and with
// each observer, and holds every observed run to the plain one; see
// TestTelemetryDoesNotPerturbSimulation.
func checkUnperturbed(t *testing.T, cfg machine.Config, observers ...perturbObserver) {
	t.Helper()
	workloads := []struct {
		name  string
		build func(*machine.Direct) OpFunc
	}{
		{"stack", StackWorkload(ds.StackOptions{Lease: 20_000})},
		{"leased-counter", CounterWorkload(CounterLeasedTTS)},
		{"lf-skiplist", SetWorkload(func(x machine.API) ds.Set { return ds.NewLFSkipList(x, LeaseTime) }, 512, 256)},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			run := func(o Options) Result {
				r := ThroughputOpts(cfg, 8, 20_000, 100_000, w.build, o)
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				return r
			}
			plain := run(Options{})
			if plain.OpLatency != nil || plain.Txns != nil || plain.LeaseLedger != nil || plain.HotLines != nil {
				t.Error("the unobserved run reported a recorder's sections")
			}
			var recorded *telemetry.Summary
			for _, ob := range observers {
				o := ob.o
				if ob.enable != nil {
					o.Recorder = telemetry.NewRecorder()
					ob.enable(o.Recorder)
				}
				got := run(o)
				if got.Ops != plain.Ops || got.Window != plain.Window || got.Fairness != plain.Fairness {
					t.Errorf("%s: ops %d, fairness %v, window %+v\nplain: ops %d, fairness %v, window %+v",
						ob.name, got.Ops, got.Fairness, got.Window, plain.Ops, plain.Fairness, plain.Window)
				}
				if *got.EngineStats != *plain.EngineStats {
					t.Errorf("%s: engine_stats %+v\nplain: %+v", ob.name, *got.EngineStats, *plain.EngineStats)
				}
				if o.Recorder == nil {
					continue
				}
				if recorded == nil {
					recorded = got.OpLatency
				}
				if got.OpLatency == nil || got.OpLatency.Count == 0 || !reflect.DeepEqual(got.OpLatency, recorded) {
					t.Errorf("%s: op latency %+v, the recorder's %+v", ob.name, got.OpLatency, recorded)
				}
				if got.Txns == nil || got.Txns.Count == 0 || got.LeaseLedger == nil || got.LeaseLedger.Leases == 0 {
					t.Errorf("%s: txn_accounting %+v, lease_ledger %+v; want the recorder's spans and leases",
						ob.name, got.Txns, got.LeaseLedger)
				}
				if (o.HotLines > 0) != (len(got.HotLines) > 0) {
					t.Errorf("%s: %d hot lines, %d asked for", ob.name, len(got.HotLines), o.HotLines)
				}
			}
		})
	}
}

// The JSON report must round-trip and carry the documented fields.
func TestReportJSON(t *testing.T) {
	cfg := machine.DefaultConfig(4)
	cfg.Seed = 5
	rec := telemetry.NewRecorder()
	r := ThroughputOpts(cfg, 4, 10_000, 40_000,
		StackWorkload(ds.StackOptions{Lease: 20_000}),
		Options{Recorder: rec, HotLines: 5})
	rep := Report{Cell: "fig2/lease/t4", Threads: 4, Seed: cfg.Seed,
		WarmCycles: 10_000, WindowCycles: 40_000, Result: r}

	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"cell", "threads", "seed", "ops", "mops_per_sec", "fairness",
		"op_latency_cycles", "lease_hold_cycles", "counters", "hot_lines",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("report JSON missing %q", key)
		}
	}
	lat, ok := m["op_latency_cycles"].(map[string]any)
	if !ok {
		t.Fatal("op_latency_cycles is not an object")
	}
	for _, key := range []string{"count", "mean", "p50", "p90", "p99"} {
		if _, ok := lat[key]; !ok {
			t.Errorf("latency summary missing %q", key)
		}
	}
	if hl, ok := m["hot_lines"].([]any); !ok || len(hl) == 0 {
		t.Error("report has no hot_lines")
	}
}
