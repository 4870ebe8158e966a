package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"leaserelease/internal/bench"
	"leaserelease/internal/machine"
	"leaserelease/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from what leasesim prints")

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
	if st.BucketEvents+st.HeapEvents != st.EventsTotal || st.HeapEvents == 0 || st.MaxPending == 0 {
		t.Errorf("engine_stats = %+v; want bucket and heap events summing to events_total, some from the heap", st)
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

// goldenRuns are the invocations whose stdout testdata/<name>.golden pins,
// each on a short window: a leased counter sweep with spans, ledger and hot
// lines in text and -json under both protocols, a TL2 cell that aborts, and
// a faulted cell under the invariant checker.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"counter", []string{"-ds", "counter", "-threads", "2,4", "-lease", "-spans", "-ledger", "-hotlines", "3"}},
	{"counter.json", []string{"-ds", "counter", "-threads", "2,4", "-lease", "-spans", "-ledger", "-hotlines", "3", "-json"}},
	{"counter.tardis", []string{"-ds", "counter", "-threads", "2,4", "-lease", "-spans", "-ledger", "-hotlines", "3", "-protocol", "tardis"}},
	{"counter.tardis.json", []string{"-ds", "counter", "-threads", "2,4", "-lease", "-spans", "-ledger", "-hotlines", "3", "-protocol", "tardis", "-json"}},
	{"tl2", []string{"-ds", "tl2", "-threads", "4", "-multilease", "off"}},
	{"faults.json", []string{"-ds", "counter", "-threads", "4", "-lease", "-faults", "-invariants", "-json"}},
}

// Every golden run prints its golden byte for byte; -update rewrites them.
func TestReportGoldens(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			args := append(append([]string(nil), g.args...), "-cycles", "100000", "-warm", "20000")
			status, out, errOut := leasesim(args...)
			if status != 0 || errOut != "" {
				t.Fatalf("%v: status %d, stderr:\n%s", args, status, errOut)
			}
			path := filepath.Join("testdata", g.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Errorf("%v printed:\n%s\nwant %s:\n%s", args, out, path, want)
			}
		})
	}
}

// decodeReports decodes the stream of reports a -json sweep prints.
func decodeReports(t *testing.T, data []byte) []bench.Report {
	t.Helper()
	var reps []bench.Report
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var rep bench.Report
		if err := dec.Decode(&rep); err != nil {
			t.Fatalf("report %d: %v\n%s", len(reps), err, data)
		}
		reps = append(reps, rep)
	}
	return reps
}

// A -json report decodes into bench.Report and encodes back byte for byte:
// the schema keeps every field leasesim writes. The inputs are the -json
// goldens and a run of the real binary whose reports carry fault_profile,
// protocol and timeline_file.
func TestReportGoldensRoundTrip(t *testing.T) {
	inputs := map[string][]byte{}
	for _, name := range []string{"counter.json", "counter.tardis.json", "faults.json"} {
		path := filepath.Join("testdata", name+".golden")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		inputs[path] = data
	}
	args := []string{"-ds", "counter", "-threads", "2,4", "-lease", "-faults", "-protocol", "tardis",
		"-timeline", filepath.Join(t.TempDir(), "t.json"), "-json", "-cycles", "100000", "-warm", "20000"}
	status, out, errOut := leasesim(args...)
	if status != 0 {
		t.Fatalf("%v: status %d, stderr:\n%s", args, status, errOut)
	}
	for _, key := range []string{`"fault_profile": "`, `"protocol": "tardis"`, `"timeline_file": "`} {
		if strings.Count(out, key) != 2 {
			t.Errorf("%v: %d reports carry %s, want 2:\n%s", args, strings.Count(out, key), key, out)
		}
	}
	inputs["faulted tardis sweep"] = []byte(out)

	for name, data := range inputs {
		reps := decodeReports(t, data)
		var buf bytes.Buffer
		for _, rep := range reps {
			if err := writeJSON(&buf, rep); err != nil {
				t.Fatal(err)
			}
		}
		if len(reps) == 0 || !bytes.Equal(buf.Bytes(), data) {
			t.Errorf("%s: %d reports re-encode as:\n%s\nwant:\n%s", name, len(reps), &buf, data)
		}
	}
}

// Without -lease, -ds tl2 is its base: the default -multilease flavor
// leases nothing, and the report is the one -multilease off prints.
func TestTL2BaseLeasesNothing(t *testing.T) {
	args := []string{"-ds", "tl2", "-threads", "4", "-json", "-cycles", "100000", "-warm", "20000"}
	status, base, errOut := leasesim(args...)
	if status != 0 {
		t.Fatalf("%v: status %d, stderr:\n%s", args, status, errOut)
	}
	if _, off, _ := leasesim(append(args, "-multilease", "off")...); base != off {
		t.Errorf("-ds tl2 printed:\n%s\nwant what -multilease off prints:\n%s", base, off)
	}
	reps := decodeReports(t, []byte(base))
	if len(reps) != 1 || reps[0].Lease || reps[0].Ops == 0 || reps[0].Window.MultiLeases != 0 {
		t.Fatalf("-ds tl2 printed:\n%s\nwant one base report with ops and no multi_leases", base)
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

// -ledger alone reports the span accounting the ledger reads, and the
// deferral the ledger charges to lines is that accounting's probe-defer
// phase, cycle for cycle, under both protocols and under fault injection.
func TestLedgerAloneCarriesSpanAccounting(t *testing.T) {
	for _, flags := range [][]string{{}, {"-protocol", "tardis"}, {"-faults"}} {
		var rep bench.Report
		if err := json.Unmarshal(counterJSON(t, append([]string{"-ledger"}, flags...)...), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Txns == nil || rep.LeaseLedger == nil {
			t.Fatalf("%v: txn_accounting %v, lease_ledger %v; want both", flags, rep.Txns != nil, rep.LeaseLedger != nil)
		}
		if got, want := rep.LeaseLedger.DeferInflictedCycles, rep.Txns.Phases.DeferWait; got != want || want == 0 {
			t.Errorf("%v: defer_inflicted_cycles %d, probe_defer_cycles %d; want them equal and nonzero", flags, got, want)
		}
	}
}

// Usage errors exit 2 before anything runs and name what was wrong;
// -compactbuckets, -serve, -trace and -sample are flags no more.
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
		{[]string{"-ds", "counter", "-threads", "2", "-hotlines", "-1"}, "-hotlines -1 is negative"},
		// A zero lease, or -multilease off, builds the base structure, which
		// must not report as leased.
		{[]string{"-ds", "counter", "-threads", "2", "-lease", "-leasetime", "0"}, "-lease wants a -leasetime of at least one cycle"},
		{[]string{"-ds", "tl2", "-threads", "2", "-lease", "-multilease", "off"}, "-lease wants a -multilease other than off"},
		{[]string{"-ds", "counter", "-threads", "2", "-trace", "20"}, "flag provided but not defined: -trace"},
		{[]string{"-ds", "counter", "-threads", "2", "-sample", "4"}, "flag provided but not defined: -sample"},
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

// A failed cell is named on stderr by its cell name, with its cause and the
// machine's state dump; its -json report, with the error and engine_stats,
// stays in the stdout stream of reports; the other cells still print
// and the exit status is 1. -strict prints nothing after the first failure.
func TestFailedCellExitsOne(t *testing.T) {
	defer func(saved func(string) (bench.Structure, bool)) { findStructure = saved }(findStructure)
	// The fourth thread panics mid-window: the two-thread cell is healthy.
	findStructure = func(string) (bench.Structure, bool) {
		return bench.Structure{Name: "counter", Build: func(bench.StructureOpts) bench.Workload {
			return func(d *machine.Direct) bench.OpFunc {
				a := d.Alloc(8)
				return func(tid int, c *machine.Ctx) {
					c.Store(a, c.Load(a)+1)
					if tid == 3 && c.Now() > 60_000 {
						panic("boom")
					}
				}
			}
		}}, true
	}
	args := []string{"-ds", "counter", "-threads", "2,4,8", "-lease", "-json", "-cycles", "100000", "-warm", "20000", "-parallel", "2"}
	status, out, errOut := leasesim(args...)
	if status != 1 {
		t.Errorf("status %d, want 1", status)
	}
	for _, want := range []string{"leasesim: counter/lease/t4 FAILED (panic): ", "boom", "machine state at cycle",
		"goroutine ", "leasesim: counter/lease/t8 FAILED (panic): "} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr lacks %q:\n%s", want, errOut)
		}
	}
	reps := decodeReports(t, []byte(out))
	if len(reps) != 3 {
		t.Fatalf("stdout holds %d reports, want 3:\n%s", len(reps), out)
	}
	for i, rep := range reps {
		if failed := rep.Threads != 2; failed != (rep.Error != "") || rep.EngineStats == nil {
			t.Errorf("report %d (t%d): error %q, engine_stats %v; want an error on t4 and t8 only, engine_stats on all",
				i, rep.Threads, rep.Error, rep.EngineStats != nil)
		}
	}

	status, out, errOut = leasesim(append(args, "-strict")...)
	if status != 1 || strings.Count(out, `"ds"`) != 2 || strings.Contains(errOut, "/t8 FAILED") {
		t.Errorf("-strict: status %d, %d reports, stderr:\n%s\nwant 1, the t2 and t4 reports, and nothing about t8",
			status, strings.Count(out, `"ds"`), errOut)
	}
}
