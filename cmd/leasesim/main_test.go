package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
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

// short is the scale of the tests' runs: a short window.
var short = []string{"-window", "100000", "-warm", "20000"}

// counterJSON is the -json report of the leased two-thread counter cell on
// a short window, with any further flags.
func counterJSON(t *testing.T, more ...string) []byte {
	t.Helper()
	args := append(append([]string{"-cell", "fig3-counter/lease/t2", "-threads", "2", "-json"}, short...), more...)
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
// each on a short window: the leased counter cells with spans, ledger and
// hot lines in text and -json under both protocols, a TL2 cell that aborts,
// and a faulted cell under the invariant checker.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"counter", []string{"-cell", "fig3-counter/lease/t*", "-threads", "2,4", "-spans", "-ledger", "-hotlines", "3"}},
	{"counter.json", []string{"-cell", "fig3-counter/lease/t*", "-threads", "2,4", "-spans", "-ledger", "-hotlines", "3", "-json"}},
	{"counter.tardis", []string{"-cell", "fig3-counter/lease/t*", "-threads", "2,4", "-spans", "-ledger", "-hotlines", "3", "-protocol", "tardis"}},
	{"counter.tardis.json", []string{"-cell", "fig3-counter/lease/t*", "-threads", "2,4", "-spans", "-ledger", "-hotlines", "3", "-protocol", "tardis", "-json"}},
	{"tl2", []string{"-cell", "fig4-tl2/base/t4", "-threads", "4"}},
	{"faults.json", []string{"-cell", "fig3-counter/lease/t4", "-threads", "4", "-faults", "-invariants", "-json"}},
}

// Every golden run prints its golden byte for byte; -update rewrites them.
func TestReportGoldens(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			args := append(append([]string(nil), g.args...), short...)
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
	args := append([]string{"-cell", "fig3-counter/lease/t*", "-threads", "2,4", "-faults", "-protocol", "tardis",
		"-timeline", filepath.Join(t.TempDir(), "t.json"), "-json"}, short...)
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

// fig4-tl2's base cell leases nothing, and its report counts the aborts
// the workload counts itself; the multilease cell beside it leases.
func TestTL2BaseLeasesNothing(t *testing.T) {
	args := append([]string{"-cell", "fig4-tl2/*/t4", "-threads", "4", "-json"}, short...)
	status, out, errOut := leasesim(args...)
	if status != 0 {
		t.Fatalf("%v: status %d, stderr:\n%s", args, status, errOut)
	}
	reps := decodeReports(t, []byte(out))
	if len(reps) != 3 || reps[0].Cell != "fig4-tl2/base/t4" || reps[1].Cell != "fig4-tl2/multi/t4" {
		t.Fatalf("%v printed:\n%s\nwant the base, multi and single reports", args, out)
	}
	if base := reps[0]; base.Ops == 0 || base.Aborts == 0 || base.Window.Leases != 0 || base.Window.MultiLeases != 0 {
		t.Errorf("base: ops %d, tl2_aborts %d, leases %d, multi_leases %d; want ops, aborts and no leases",
			base.Ops, base.Aborts, base.Window.Leases, base.Window.MultiLeases)
	}
	if reps[1].Window.MultiLeases == 0 {
		t.Error("the multi cell took no multi_leases: the test shows nothing")
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

// TestCellReproducesSweep: a cell run by leasesim is the cell leasebench
// measures. For one cell of every experiment with variants, the -json
// report's Result is what Sweep.Measure returns for it at the same scale.
// A cell whose variant runs its own measurement (TL2, snapshot, Pagerank)
// runs under -invariants -spans too, and its report carries what the
// recorder recorded.
func TestCellReproducesSweep(t *testing.T) {
	p := bench.QuickParams()
	p.Threads = []int{2}
	pool := bench.NewPool(2)
	defer pool.Close()
	p.Pool = pool
	runs := 0
	for _, e := range bench.All() {
		s := e.Sweep(p)
		if len(s.Variants) == 0 || len(s.Rows) == 0 {
			continue
		}
		// The last cell: the leased, faulted or protocol-switched one.
		ri, vi := len(s.Rows)-1, len(s.Variants)-1
		v := s.Variants[vi]
		name := bench.CellName(e.ID, s.Rows[ri], v)
		t.Run(name, func(t *testing.T) {
			args := []string{"-cell", name, "-quick", "-threads", "2", "-json"}
			if v.Run != nil {
				args = append(args, "-invariants", "-spans")
			}
			status, out, errOut := leasesim(args...)
			if status != 0 {
				t.Fatalf("%v: status %d, stderr:\n%s", args, status, errOut)
			}
			reps := decodeReports(t, []byte(out))
			if len(reps) != 1 {
				t.Fatalf("%v printed %d reports, want 1", args, len(reps))
			}
			got, want := reps[0], s.Measure(p)[ri][vi]
			if want.Err != nil {
				t.Fatal(want.Err)
			}
			gotW, _ := json.Marshal(got.Window)
			wantW, _ := json.Marshal(want.Window)
			if got.Ops != want.Ops || got.MopsPerSec != want.MopsPerSec || !bytes.Equal(gotW, wantW) {
				t.Errorf("leasesim: ops %d, %v Mops/s, counters %s\nsweep:    ops %d, %v Mops/s, counters %s",
					got.Ops, got.MopsPerSec, gotW, want.Ops, want.MopsPerSec, wantW)
			}
			if got.Window.Cycles == 0 {
				t.Error("the cell ran no cycles")
			}
			if v.Run != nil && (got.Txns == nil || got.Txns.Count == 0 || got.OpLatency == nil ||
				got.Ops > 0 && got.OpLatency.Count == 0) {
				t.Errorf("-spans: txn_accounting %+v, op_latency_cycles %+v; want the recorder's sections", got.Txns, got.OpLatency)
			}
			runs++
		})
	}
	if runs < len(bench.All())-1 {
		t.Errorf("%d experiments checked, want all but table1", runs)
	}
}

// Usage errors exit 2 before anything runs and name what was wrong; -ds,
// the config flags and -cycles are flags no more, nor are -compactbuckets,
// -serve, -trace and -sample.
func TestUsageErrors(t *testing.T) {
	cell := []string{"-cell", "fig3-counter/lease/t2"}
	for _, c := range []struct {
		args []string
		want string // on stderr
	}{
		{nil, "-cell wants a cell name or pattern"},
		{[]string{"-cell", "fig9/*/t2"}, `-cell "fig9/*/t2" matches no cell at -threads 2,4,8,16,32,64`},
		// A cell exists at the thread counts it is declared at.
		{[]string{"-cell", "fig2/lease/t16", "-threads", "2,8"}, `-cell "fig2/lease/t16" matches no cell at -threads 2,8`},
		{[]string{"-cell", "fig2/[/t2"}, `bad -cell pattern "fig2/[/t2"`},
		{[]string{"-ds", "counter"}, "flag provided but not defined: -ds"},
		{append([]string{"-lease"}, cell...), "flag provided but not defined: -lease"},
		{append([]string{"-preempttargeted"}, cell...), "flag provided but not defined: -preempttargeted"},
		{append([]string{"-multilease", "sw"}, cell...), "flag provided but not defined: -multilease"},
		{append([]string{"-cycles", "100000"}, cell...), "flag provided but not defined: -cycles"},
		{[]string{"-compactbuckets"}, "flag provided but not defined: -compactbuckets"},
		{append([]string{"-protocol", "moesi"}, cell...), `unknown -protocol "moesi"`},
		// Two cells of one thread count would share a -timeline file.
		{append([]string{"-threads", "2,2"}, cell...), "thread count 2 given twice"},
		{append([]string{"-parallel", "-3"}, cell...), "-parallel -3 is negative"},
		{append([]string{"-window", "0"}, cell...), "-window wants at least one cycle"},
		{[]string{"-serve", ":0"}, "flag provided but not defined: -serve"},
		{append([]string{"-hotlines", "-1"}, cell...), "-hotlines -1 is negative"},
		{append([]string{"-trace", "20"}, cell...), "flag provided but not defined: -trace"},
		{append([]string{"-sample", "4"}, cell...), "flag provided but not defined: -sample"},
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

// beforeStack is a failure report up to the Go stack of its panic, which
// differs from run to run.
func beforeStack(report string) string {
	report, _, _ = strings.Cut(report, "panic stack:")
	return report
}

// A failed cell is named on stderr by its cell name, with its cause and the
// machine's state dump; its -json report, with the error and engine_stats,
// stays in the stdout stream of reports; the other cells still print
// and the exit status is 1. -strict prints nothing after the first failure.
// The name, pasted back into -cell, reproduces the failure and its dump,
// which are the ones the sweep (leasebench) reports.
func TestFailedCellExitsOne(t *testing.T) {
	// The fourth thread panics mid-window: the two-thread cell is healthy.
	broken := func(d *machine.Direct) bench.OpFunc {
		a := d.Alloc(8)
		return func(tid int, c *machine.Ctx) {
			c.Store(a, c.Load(a)+1)
			if tid == 3 && c.Now() > 60_000 {
				panic("boom")
			}
		}
	}
	failing := bench.Experiment{ID: "failing", Paper: "the fourth thread panics mid-window", Sweep: func(p bench.Params) bench.Sweep {
		var rows []bench.Row
		for _, n := range p.Threads {
			rows = append(rows, bench.Row{Threads: n})
		}
		return bench.Sweep{Rows: rows, Variants: []bench.Variant{{Name: "broken",
			Build: func(bench.Row) bench.Workload { return broken }}}}
	}}
	defer func(saved []bench.Experiment) { experiments = saved }(experiments)
	experiments = []bench.Experiment{failing}

	scale := append([]string{"-threads", "2,4,8", "-parallel", "2"}, short...)
	args := append([]string{"-cell", "failing/broken/t*", "-json"}, scale...)
	status, out, errOut := leasesim(args...)
	if status != 1 {
		t.Errorf("status %d, want 1", status)
	}
	for _, want := range []string{"leasesim: failing/broken/t4 FAILED (panic): ", "boom", "machine state at cycle",
		"goroutine ", "leasesim: failing/broken/t8 FAILED (panic): "} {
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
	if status != 1 || strings.Count(out, `"cell"`) != 2 || strings.Contains(errOut, "/t8 FAILED") {
		t.Errorf("-strict: status %d, %d reports, stderr:\n%s\nwant 1, the t2 and t4 reports, and nothing about t8",
			status, strings.Count(out, `"cell"`), errOut)
	}

	// The name, pasted back, reproduces the failure and its dump.
	status, out, again := leasesim(append([]string{"-cell", "failing/broken/t4"}, scale...)...)
	if status != 1 || out != "" || !strings.HasPrefix(errOut, beforeStack(again)) {
		t.Errorf("-cell failing/broken/t4: status %d, stdout %q, stderr:\n%s\nwant 1, nothing, and the first run's report:\n%s",
			status, out, again, errOut)
	}

	// So does the name the sweep (leasebench) prints, up to the engine's
	// event counts: leasesim's recorder makes each thread rejoin the event
	// queue at every operation's end, which costs events but moves no
	// simulated cycle.
	p := bench.Params{Threads: []int{2, 4, 8}, Warm: 20_000, Window: 100_000}
	var sweep, want bytes.Buffer
	failed := failing.Run(&sweep, p)
	if len(failed) != 2 || failed[0].Cell != "failing/broken/t4" || !strings.Contains(sweep.String(), "FAILED failing/broken/t4 (panic)") {
		t.Fatalf("the sweep failed %v, printing:\n%s\nwant t4 and t8", failed, &sweep)
	}
	failed[0].Print(&want, "leasesim")
	if got, want := engineCounts.ReplaceAllString(beforeStack(again), "N"), engineCounts.ReplaceAllString(beforeStack(want.String()), "N"); got != want {
		t.Errorf("-cell %s reported:\n%s\nthe sweep:\n%s", failed[0].Cell, got, want)
	}
}

// engineCounts matches the host-side event counts of a failure report.
var engineCounts = regexp.MustCompile(`event seq \d+|\d+ events executed`)
