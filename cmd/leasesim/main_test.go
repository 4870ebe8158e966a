package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"leaserelease/internal/sim"
)

// leasesim runs the binary's main with the given arguments.
func leasesim(args ...string) (status int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	status = run(args, &out, &errOut)
	return status, out.String(), errOut.String()
}

// counterJSON is the -json report of a leased two-thread counter cell on a
// short window, with any further flags.
func counterJSON(t *testing.T, more ...string) []byte {
	t.Helper()
	args := append([]string{"-ds", "counter", "-threads", "2", "-lease", "-json",
		"-cycles", "100000", "-warm", "20000"}, more...)
	status, out, errOut := leasesim(args...)
	if status != 0 {
		t.Fatalf("%v: status %d, stderr:\n%s", args, status, errOut)
	}
	return []byte(out)
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
	report := counterJSON(t)

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

	if again := counterJSON(t); !bytes.Equal(report, again) {
		t.Error("a rerun wrote a different report")
	}
	if got := counterJSON(t, "-invariants"); !bytes.Equal(report, got) {
		t.Error("-invariants changed the report")
	}
}

// Every configuration holds the lookahead certificate, and engine_stats is
// where it shows: the Tardis and the faulted cell declare the 15-cycle hop
// too and skip some of their Syncs.
func TestEngineStatsEveryConfigurationCertified(t *testing.T) {
	for _, flags := range [][]string{{"-protocol", "tardis"}, {"-faults"}, {"-protocol", "tardis", "-faults"}} {
		st := engineStats(t, counterJSON(t, flags...))
		if st.EventsTotal == 0 || st.Lookahead != 15 || st.SyncsSkipped == 0 {
			t.Errorf("%v: engine_stats = %+v; want events, lookahead 15 and some syncs skipped", flags, st)
		}
	}
}

// Usage errors exit 2 before anything runs and name what was wrong;
// -compactbuckets and -serve are flags no more.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // on stderr
	}{
		{[]string{"-compactbuckets"}, "flag provided but not defined: -compactbuckets"},
		{[]string{"-ds", "nosuch"}, `unknown -ds "nosuch" (valid: `},
		{[]string{"-preempt", "1001"}, "-preempt 1001 out of range"},
		{[]string{"-ds", "tl2", "-multilease", "both"}, `bad -multilease "both"`},
		{[]string{"-threads", ""}, "-threads wants at least one thread count"},
		{[]string{"-protocol", "moesi"}, `unknown -protocol "moesi"`},
		// Two cells of one thread count would share a -timeline file.
		{[]string{"-threads", "2,2"}, "thread count 2 given twice"},
		{[]string{"-ds", "counter", "-threads", "2", "-parallel", "-3"}, "-parallel -3 is negative"},
		{[]string{"-cycles", "0"}, "-cycles wants at least one cycle"},
		{[]string{"-serve", ":0"}, "flag provided but not defined: -serve"},
		// Preemption is run as asked or refused: not fixed at -preemptmin,
		// not silently off.
		{[]string{"-ds", "counter", "-threads", "2", "-preempt", "5", "-preemptmin", "5000", "-preemptmax", "100"},
			"-preemptmin 5000 exceeds -preemptmax 100"},
		{[]string{"-ds", "counter", "-threads", "2", "-preempt", "5", "-preemptmax", "0"},
			"-preemptmax wants at least one cycle"},
		{[]string{"-ds", "counter", "-threads", "2", "-sample", "-1"}, "-sample -1 is negative"},
		{[]string{"-ds", "counter", "-threads", "2", "-hotlines", "-1"}, "-hotlines -1 is negative"},
		{[]string{"-ds", "counter", "-threads", "2", "-trace", "-1"}, "-trace -1 is negative"},
	} {
		status, out, errOut := leasesim(c.args...)
		if status != 2 || out != "" {
			t.Errorf("%v: status %d, stdout %q; want 2 and nothing on stdout", c.args, status, out)
		}
		if !strings.Contains(errOut, c.want) {
			t.Errorf("%v: stderr lacks %q:\n%s", c.args, c.want, errOut)
		}
	}
}

// -trace prints the first N lease events ahead of the report. The golden
// predates the removal of machine.TraceEvent: a bus subscription prints the
// same bytes.
func TestTraceGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/trace20.golden")
	if err != nil {
		t.Fatal(err)
	}
	status, out, errOut := leasesim("-ds", "counter", "-threads", "4", "-lease", "-trace", "20")
	if status != 0 || errOut != "" {
		t.Fatalf("status %d, stderr:\n%s", status, errOut)
	}
	if out != string(want) {
		t.Errorf("-trace 20 output:\n%s\nwant testdata/trace20.golden:\n%s", out, want)
	}
}
