package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

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
		Options{Recorder: rec})
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
	top1, top2 := rec1.Lines.Top(8), rec2.Lines.Top(8)
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
	if len(top1) == 0 || top1[0].Score() == 0 {
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

// Attaching telemetry must not perturb the simulation: the measured window
// (ops, every hardware counter, fairness) is identical with and without a
// Recorder.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	run := func(o Options) Result {
		cfg := machine.DefaultConfig(8)
		cfg.Seed = 3
		return ThroughputOpts(cfg, 8, 20_000, 80_000,
			StackWorkload(ds.StackOptions{Lease: 20_000}), o)
	}
	plain := run(Options{})
	rec := telemetry.NewRecorder()
	rec.EnableTimeline(1000)
	traced := run(Options{Recorder: rec})

	if plain.Ops != traced.Ops {
		t.Errorf("ops changed with telemetry: %d vs %d", plain.Ops, traced.Ops)
	}
	if plain.Window != traced.Window {
		t.Errorf("window stats changed with telemetry:\n%+v\n%+v", plain.Window, traced.Window)
	}
	if plain.Fairness != traced.Fairness {
		t.Errorf("fairness changed with telemetry: %v vs %v", plain.Fairness, traced.Fairness)
	}
}

// The JSON report must round-trip and carry the documented fields.
func TestReportJSON(t *testing.T) {
	cfg := machine.DefaultConfig(4)
	cfg.Seed = 5
	rec := telemetry.NewRecorder()
	r := ThroughputOpts(cfg, 4, 10_000, 40_000,
		StackWorkload(ds.StackOptions{Lease: 20_000}),
		Options{Recorder: rec})
	r.HotLines = HotLineRows(rec, 5)
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
