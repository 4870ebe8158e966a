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

var update = flag.Bool("update", false, "rewrite testdata/*.golden from what leasebench -cell prints")

// leasebench runs the binary's main with the given arguments.
func leasebench(args ...string) (status int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	status = run(args, &out, &errOut)
	return status, out.String(), errOut.String()
}

// experiment returns the experiment -exp id selects.
func experiment(id string) bench.Experiment {
	for _, e := range experiments {
		if e.ID == id {
			return e
		}
	}
	panic("no experiment " + id)
}

// short is the scale of the tests' cell runs: a short window.
var short = []string{"-window", "100000", "-warm", "20000"}

// counterReport is the report of the leased two-thread counter cell on a
// short window, with any further flags.
func counterReport(t *testing.T, more ...string) []byte {
	t.Helper()
	args := append(append([]string{"-cell", "fig3-counter/lease/t2", "-threads", "2"}, short...), more...)
	status, out, errOut := leasebench(args...)
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

// decodeReports decodes the stream of reports a -cell run prints.
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

func TestListNamesEveryExperiment(t *testing.T) {
	status, out, _ := leasebench("-list")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if status != 0 || len(lines) != 21 || len(lines) != len(bench.All()) {
		t.Fatalf("-list: status %d, %d lines, want 0 and 21:\n%s", status, len(lines), out)
	}
	for i, e := range bench.All() {
		if !strings.HasPrefix(lines[i], e.ID+" ") || !strings.HasSuffix(lines[i], e.Paper) {
			t.Errorf("-list line %d = %q, want %s and its title", i, lines[i], e.ID)
		}
	}
}

type usageCase struct {
	args []string
	want []string // on stderr
}

// checkUsageErrors runs each case and wants exit status 2, nothing on
// stdout, and each of its wanted strings on stderr.
func checkUsageErrors(t *testing.T, cases []usageCase) {
	t.Helper()
	for _, c := range cases {
		status, out, errOut := leasebench(c.args...)
		if status != 2 || out != "" {
			t.Errorf("%v: status %d, stdout %q; want 2 and nothing on stdout", c.args, status, out)
		}
		for _, want := range c.want {
			if !strings.Contains(errOut, want) {
				t.Errorf("%v: stderr lacks %q:\n%s", c.args, want, errOut)
			}
		}
	}
}

// Usage errors exit 2 before anything runs, and say what would have been
// valid. Removed flags (-compare, -threshold, -perfjson, -serve and -json)
// are flags no more.
func TestUsageErrors(t *testing.T) {
	cell := []string{"-cell", "fig3-counter/lease/t2"}
	cases := []usageCase{
		{[]string{"-exp", "fig9"}, []string{`unknown experiment "fig9"`, "  fig2 ", "  protocol-compare ", "  all "}},
		{[]string{"-exp", "fig2", "-protocol", "moesi"}, []string{`unknown -protocol "moesi"`, "msi, tardis"}},
		{[]string{"-exp", "fig2", "-threads", "2,x"}, []string{`bad thread count "x"`}},
		{[]string{"-exp", "fig2", "-threads", "65"}, []string{`bad thread count "65"`}},
		{[]string{"-compare", "a.json", "b.json"}, []string{"flag provided but not defined: -compare"}},
		{[]string{"-exp", "fig2", "-threshold", "5"}, []string{"flag provided but not defined: -threshold"}},
		{[]string{"-nosuchflag"}, []string{"flag provided but not defined"}},
		{[]string{"-perfjson", "x", "-exp", "table1"}, []string{"flag provided but not defined: -perfjson"}},
		{nil, []string{"-exp string", "-cell string"}},
		// The binary has no subcommands: a first argument that is no flag gets
		// the usage text.
		{[]string{"history", "run.json"}, []string{"Usage of leasebench", "-exp string"}},
		{[]string{"report"}, []string{"Usage of leasebench", "-exp string"}},
		// One selector: -list, -exp or -cell.
		{[]string{"-list", "-exp", "fig2"}, []string{"-list, -exp and -cell each select what runs: give one"}},
		{append([]string{"-exp", "fig2"}, cell...), []string{"-list, -exp and -cell each select what runs: give one"}},
		{append([]string{"-json"}, cell...), []string{"flag provided but not defined: -json"}},
		{[]string{"-exp", "fig2", "-threads", "2,2"}, []string{"thread count 2 given twice"}},
		{[]string{"-exp", "fig2", "-quick", "-window", "0"}, []string{"-window wants at least one cycle"}},
		{[]string{"-exp", "fig2", "-quick", "-parallel", "-3"}, []string{"-parallel -3 is negative"}},
		{[]string{"-exp", "table1", "-quick", "-serve", ":0"}, []string{"flag provided but not defined: -serve"}},
		// An experiment asked for alone must measure something.
		{[]string{"-exp", "snapshot", "-threads", "1", "-quick"}, []string{"snapshot has no rows at -threads 1"}},
		{[]string{"-exp", "text-lowcontention", "-threads", "1,2,3", "-quick"}, []string{"text-lowcontention has no rows at -threads 1,2,3"}},
	}
	// An observation flag observes a cell, and without -cell it is never
	// silently ignored, not even at its default value.
	for _, f := range []string{"-hotlines=10", "-timeline=t.json", "-spans", "-ledger", "-invariants", "-faults", "-seed=3"} {
		name, _, _ := strings.Cut(f[1:], "=")
		want := []string{"-" + name + " observes a cell: it wants -cell"}
		cases = append(cases, usageCase{[]string{"-exp", "fig2", f}, want}, usageCase{[]string{"-list", f}, want})
	}
	checkUsageErrors(t, cases)
}

// A -cell that names no cell is a usage error, and so are its bad
// observation values; the per-run config flags of the old single-cell
// binary (-ds, -lease, -cycles and the like), -compactbuckets, -trace and
// -sample are flags no more.
func TestCellUsageErrors(t *testing.T) {
	cell := []string{"-cell", "fig3-counter/lease/t2"}
	checkUsageErrors(t, []usageCase{
		// A cell exists at the thread counts it is declared at.
		{[]string{"-cell", "fig9/*/t2"}, []string{`-cell "fig9/*/t2" matches no cell at -threads 2,4,8,16,32,64`}},
		{[]string{"-cell", "fig2/lease/t16", "-threads", "2,8"}, []string{`-cell "fig2/lease/t16" matches no cell at -threads 2,8`}},
		{[]string{"-cell", "fig2/[/t2"}, []string{`bad -cell pattern "fig2/[/t2"`}},
		{append([]string{"-hotlines", "-1"}, cell...), []string{"-hotlines -1 is negative"}},
		{[]string{"-ds", "counter"}, []string{"flag provided but not defined: -ds"}},
		{append([]string{"-lease"}, cell...), []string{"flag provided but not defined: -lease"}},
		{append([]string{"-preempttargeted"}, cell...), []string{"flag provided but not defined: -preempttargeted"}},
		{append([]string{"-multilease", "sw"}, cell...), []string{"flag provided but not defined: -multilease"}},
		{append([]string{"-cycles", "100000"}, cell...), []string{"flag provided but not defined: -cycles"}},
		{[]string{"-compactbuckets"}, []string{"flag provided but not defined: -compactbuckets"}},
		{append([]string{"-trace", "20"}, cell...), []string{"flag provided but not defined: -trace"}},
		{append([]string{"-sample", "4"}, cell...), []string{"flag provided but not defined: -sample"}},
		// The scale flags are checked under -cell as under -exp; two cells of
		// one thread count would share a -timeline file.
		{append([]string{"-protocol", "moesi"}, cell...), []string{`unknown -protocol "moesi"`}},
		{append([]string{"-threads", "2,2"}, cell...), []string{"thread count 2 given twice"}},
		{append([]string{"-parallel", "-3"}, cell...), []string{"-parallel -3 is negative"}},
		{append([]string{"-window", "0"}, cell...), []string{"-window wants at least one cycle"}},
	})
}

var wallTime = regexp.MustCompile(`(?m)^\(wall time [0-9.]+s\)\n`)

// An experiment run through the CLI prints its header, exactly what its
// declaration prints, and the wall-time line.
func TestExperimentOutputIsTheDeclarations(t *testing.T) {
	status, out, errOut := leasebench("-exp", "fig4-mq", "-quick", "-parallel", "2")
	if status != 0 {
		t.Fatalf("status %d, stderr:\n%s", status, errOut)
	}
	e := experiment("fig4-mq")
	var want bytes.Buffer
	want.WriteString("## fig4-mq — " + e.Paper + "\n")
	if failed := e.Run(&want, bench.QuickParams()); len(failed) > 0 {
		t.Fatal(failed)
	}
	want.WriteString("\n")
	if !wallTime.MatchString(out) {
		t.Errorf("no wall-time line:\n%s", out)
	}
	if got := wallTime.ReplaceAllString(out, ""); got != want.String() {
		t.Errorf("CLI output, wall time stripped:\n%s\nwant the declaration's:\n%s", got, &want)
	}
}

// -warm means warm-up cycles excluded from the measurement, as under -cell,
// so -warm 0 is a run without warm-up and not a flag left unset.
func TestWarmZeroIsAValue(t *testing.T) {
	run := func(args ...string) string {
		status, out, errOut := leasebench(append([]string{"-exp", "fig4-mq", "-quick", "-parallel", "2"}, args...)...)
		if status != 0 {
			t.Fatalf("%v: status %d, stderr:\n%s", args, status, errOut)
		}
		return wallTime.ReplaceAllString(out, "")
	}
	cold := run("-warm", "0")
	if cold == run() {
		t.Error("-warm 0 printed what the scale's warm-up prints")
	}
	e := experiment("fig4-mq")
	p := bench.QuickParams()
	p.Warm = 0
	var want bytes.Buffer
	want.WriteString("## fig4-mq — " + e.Paper + "\n")
	if failed := e.Run(&want, p); len(failed) > 0 {
		t.Fatal(failed)
	}
	want.WriteString("\n")
	if cold != want.String() {
		t.Errorf("-warm 0 printed:\n%s\nwant the declaration's with Params.Warm = 0:\n%s", cold, &want)
	}
}

// beforeStack is a failure report up to the Go stack of its panic, which
// differs from run to run.
func beforeStack(report string) string {
	report, _, _ = strings.Cut(report, "panic stack:")
	return report
}

// failingExperiment is an experiment whose fourth thread panics mid-window:
// its two-thread cell is healthy.
func failingExperiment() bench.Experiment {
	broken := func(d *machine.Direct) bench.OpFunc {
		a := d.Alloc(8)
		return func(tid int, c *machine.Ctx) {
			c.Store(a, c.Load(a)+1)
			if tid == 3 && c.Now() > 60_000 {
				panic("boom")
			}
		}
	}
	return bench.Experiment{ID: "failing", Paper: "the fourth thread panics mid-window", Sweep: func(p bench.Params) bench.Sweep {
		var rows []bench.Row
		for _, n := range p.Threads {
			rows = append(rows, bench.Row{Threads: n})
		}
		return bench.Sweep{Rows: rows, Variants: []bench.Variant{{Name: "broken",
			Build: func(bench.Row) bench.Workload { return broken }}},
			Tables: []bench.TableSpec{{Cols: []bench.Col{{Head: "broken Mops/s",
				Cell: func(res []bench.Result) any { return res[0].MopsPerSec }}}}},
		}
	}}
}

// failingScale is the scale failingExperiment runs at: t4 and t8 fail.
var failingScale = append([]string{"-threads", "2,4,8", "-parallel", "2"}, short...)

// A failed cell fails its experiment and the process: the cell is named on
// stderr with its cause and the machine's state dump, stdout keeps the
// tables and says FAILED under them, the exit status is 1, and the remaining
// experiments still run unless -strict.
func TestFailedCellExitsOne(t *testing.T) {
	defer func(saved []bench.Experiment) { experiments = saved }(experiments)
	experiments = []bench.Experiment{failingExperiment(), experiment("table1")}

	status, out, errOut := leasebench(append([]string{"-exp", "all"}, failingScale...)...)
	if status != 1 {
		t.Errorf("-exp all: status %d, want 1", status)
	}
	for _, want := range []string{"## failing — ", "broken Mops/s", "FAILED failing/broken/t4 (panic): ",
		"FAILED failing/broken/t8 (panic): ", "## table1 — ", "MAX_NUM_LEASES"} {
		if !strings.Contains(out, want) {
			t.Errorf("-exp all: stdout lacks %q:\n%s", want, out)
		}
	}
	for _, want := range []string{"leasebench: failing/broken/t4 FAILED (panic): ", "boom", "machine state at cycle",
		"goroutine ", "leasebench: failing/broken/t8 FAILED (panic): "} {
		if !strings.Contains(errOut, want) {
			t.Errorf("-exp all: stderr lacks %q:\n%s", want, errOut)
		}
	}
	status, out, _ = leasebench(append([]string{"-exp", "all", "-strict"}, failingScale...)...)
	if status != 1 || strings.Contains(out, "## table1") {
		t.Errorf("-exp all -strict: status %d, want 1 and nothing after the failed experiment:\n%s", status, out)
	}
}

// Under -cell a failed cell is named on stderr by its cell name, with its
// cause and the machine's state dump; its report, with the error and
// engine_stats, stays in the stdout stream of reports, the other cells still
// print and the exit status is 1. -strict prints nothing after the first
// failure. The name, pasted back into -cell, reproduces the failure and its
// dump, which are the ones the sweep reports.
func TestCellFailureExitsOne(t *testing.T) {
	failing := failingExperiment()
	defer func(saved []bench.Experiment) { experiments = saved }(experiments)
	experiments = []bench.Experiment{failing}

	args := append([]string{"-cell", "failing/broken/t*"}, failingScale...)
	status, out, errOut := leasebench(args...)
	if status != 1 {
		t.Errorf("%v: status %d, want 1", args, status)
	}
	for _, want := range []string{"leasebench: failing/broken/t4 FAILED (panic): ", "boom", "machine state at cycle",
		"goroutine ", "leasebench: failing/broken/t8 FAILED (panic): "} {
		if !strings.Contains(errOut, want) {
			t.Errorf("%v: stderr lacks %q:\n%s", args, want, errOut)
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
	// A failed cell writes its -timeline file too: it is the repro. Under
	// -strict the cells after the first failure print nothing but still
	// write theirs.
	dir := t.TempDir()
	isTrace := func(path string) {
		t.Helper()
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &doc)
		}
		if err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("timeline %s: %v, %d trace events; want a trace-event document", path, err, len(doc.TraceEvents))
		}
	}
	status, out, errOut = leasebench(append(args, "-strict", "-timeline", filepath.Join(dir, "t.json"))...)
	if status != 1 || strings.Count(out, `"cell"`) != 2 || strings.Contains(errOut, "/t8 FAILED") {
		t.Errorf("-cell -strict: status %d, %d reports, stderr:\n%s\nwant 1, the t2 and t4 reports, and nothing about t8",
			status, strings.Count(out, `"cell"`), errOut)
	}
	for _, n := range []string{"t2", "t4", "t8"} {
		isTrace(filepath.Join(dir, "t.json.failing.broken."+n))
	}

	// The name, pasted back, reproduces the failure and its dump, and its
	// report names the timeline it wrote.
	tl := filepath.Join(dir, "t4.json")
	status, out, again := leasebench(append([]string{"-cell", "failing/broken/t4", "-timeline", tl}, failingScale...)...)
	if reps := decodeReports(t, []byte(out)); status != 1 || len(reps) != 1 || reps[0].Error == "" || reps[0].TimelineFile != tl ||
		!strings.HasPrefix(errOut, beforeStack(again)) {
		t.Errorf("-cell failing/broken/t4 -timeline %s: status %d, stdout %s, stderr:\n%s\nwant 1, its failed report naming the timeline, and the first run's dump:\n%s",
			tl, status, out, again, errOut)
	}
	isTrace(tl)
	// So does the name the sweep prints.
	p := bench.Params{Threads: []int{2, 4, 8}, Warm: 20_000, Window: 100_000}
	var sweep, want bytes.Buffer
	failed := failing.Run(&sweep, p)
	if len(failed) != 2 || failed[0].Cell != "failing/broken/t4" || !strings.Contains(sweep.String(), "FAILED failing/broken/t4 (panic)") {
		t.Fatalf("the sweep failed %v, printing:\n%s\nwant t4 and t8", failed, &sweep)
	}
	failed[0].Print(&want)
	if got, want := beforeStack(again), beforeStack(want.String()); got != want {
		t.Errorf("-cell %s reported:\n%s\nthe sweep:\n%s", failed[0].Cell, got, want)
	}
}

// Under -exp all, an experiment with no rows at the given -threads prints one
// line in place of its tables, and the others still run.
func TestEmptyGridUnderAllIsOneLine(t *testing.T) {
	defer func(saved []bench.Experiment) { experiments = saved }(experiments)
	experiments = []bench.Experiment{experiment("snapshot"), experiment("table1")}
	status, out, errOut := leasebench("-exp", "all", "-threads", "1", "-quick")
	want := "## snapshot — " + experiment("snapshot").Paper + "\n(snapshot has no rows at -threads 1)\n\n## table1 — "
	if status != 0 || !strings.HasPrefix(out, want) || !strings.Contains(out, "MAX_NUM_LEASES") {
		t.Errorf("status %d, want 0; stdout:\n%s\nwant it to start:\n%s\nstderr:\n%s", status, out, want, errOut)
	}
}

// The report of a plain MSI cell carries the engine's host-side counters,
// names nothing after the removed executor, and is the same bytes on a
// rerun and with the invariant checker attached.
func TestJSONReportCarriesEngineStats(t *testing.T) {
	report := counterReport(t)

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

	if again := counterReport(t); !bytes.Equal(report, again) {
		t.Error("a rerun wrote a different report")
	}
	if got := counterReport(t, "-invariants"); !bytes.Equal(report, got) {
		t.Error("-invariants changed the report")
	}
}

// The directory counts a line's traffic whenever the machine has a bus, so
// the invariant checker, which subscribes every category, leaves a faulted
// traced queue cell's hot_lines (its whole report) as they are, under both
// protocols.
func TestHotLinesIgnoreTheInvariantChecker(t *testing.T) {
	for _, proto := range []string{"msi", "tardis"} {
		args := append([]string{"-cell", "fig3-queue/lease/t4", "-threads", "4", "-protocol", proto, "-faults", "-hotlines", "10"}, short...)
		var reports [2]string
		for i, more := range [][]string{nil, {"-invariants"}} {
			status, out, errOut := leasebench(append(args, more...)...)
			if status != 0 {
				t.Fatalf("%v %v: status %d, stderr:\n%s", args, more, status, errOut)
			}
			reports[i] = out
		}
		if strings.Count(reports[0], `"l1_evictions"`) != 10 {
			t.Fatalf("%s: want ten hot lines:\n%s", proto, reports[0])
		}
		if reports[0] != reports[1] {
			t.Errorf("%s: -invariants changed the report:\n%s\nwant:\n%s", proto, reports[1], reports[0])
		}
	}
}

// goldenRuns are the -cell invocations whose stdout testdata/<name>.golden
// pins, each on a short window unless it names its own: the leased counter
// cells with spans, ledger and hot lines under both protocols, a TL2 cell
// that aborts, a faulted cell under the invariant checker, and a leased
// queue cell whose recorder observes about a thousand lines across four
// core arenas (every enqueue takes a fresh node line), clean under MSI and
// faulted under Tardis.
var goldenRuns = []struct {
	name string
	args []string
}{
	{"counter.json", []string{"-cell", "fig3-counter/lease/t*", "-threads", "2,4", "-spans", "-ledger", "-hotlines", "3"}},
	{"counter.tardis.json", []string{"-cell", "fig3-counter/lease/t*", "-threads", "2,4", "-spans", "-ledger", "-hotlines", "3", "-protocol", "tardis"}},
	{"tl2.json", []string{"-cell", "fig4-tl2/base/t4", "-threads", "4"}},
	{"faults.json", []string{"-cell", "fig3-counter/lease/t4", "-threads", "4", "-faults", "-invariants"}},
	{"queue.json", []string{"-cell", "fig3-queue/lease/t4", "-threads", "4", "-spans", "-ledger", "-hotlines", "10", "-window", "200000"}},
	{"queue.tardis.json", []string{"-cell", "fig3-queue/lease/t4", "-threads", "4", "-protocol", "tardis", "-faults", "-spans", "-ledger", "-hotlines", "10", "-window", "200000"}},
}

// Every golden run prints its golden byte for byte; -update rewrites them.
func TestReportGoldens(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			args := append(append([]string(nil), short...), g.args...)
			status, out, errOut := leasebench(args...)
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

// A report decodes into bench.Report and encodes back byte for byte: the
// schema keeps every field -cell writes. The inputs are the goldens and a
// run of the real binary whose reports carry fault_profile, protocol and
// timeline_file.
func TestReportGoldensRoundTrip(t *testing.T) {
	inputs := map[string][]byte{}
	for _, g := range goldenRuns {
		path := filepath.Join("testdata", g.name+".golden")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		inputs[path] = data
	}
	args := append([]string{"-cell", "fig3-counter/lease/t*", "-threads", "2,4", "-faults", "-protocol", "tardis",
		"-timeline", filepath.Join(t.TempDir(), "t.json")}, short...)
	status, out, errOut := leasebench(args...)
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
	args := append([]string{"-cell", "fig4-tl2/*/t4", "-threads", "4"}, short...)
	status, out, errOut := leasebench(args...)
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
		st := engineStats(t, counterReport(t, flags...))
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
		if err := json.Unmarshal(counterReport(t, append([]string{"-ledger"}, flags...)...), &rep); err != nil {
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

// TestCellReproducesSweep: a cell run by -cell is the cell -exp measures.
// For one cell of every experiment with variants, the report's Result is
// what Sweep.Measure returns for it at the same scale, and so is its whole
// engine_stats: -cell's recorder costs no event. A cell whose
// variant runs its own measurement (TL2, snapshot, Pagerank) runs under
// -invariants -spans too, and its report carries what the recorder
// recorded.
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
			args := []string{"-cell", name, "-quick", "-threads", "2"}
			if v.Run != nil {
				args = append(args, "-invariants", "-spans")
			}
			status, out, errOut := leasebench(args...)
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
				t.Errorf("-cell: ops %d, %v Mops/s, counters %s\nsweep: ops %d, %v Mops/s, counters %s",
					got.Ops, got.MopsPerSec, gotW, want.Ops, want.MopsPerSec, wantW)
			}
			if got.Window.Cycles == 0 {
				t.Error("the cell ran no cycles")
			}
			if got.EngineStats == nil || want.EngineStats == nil || *got.EngineStats != *want.EngineStats {
				t.Errorf("engine_stats: -cell %+v\nsweep %+v", got.EngineStats, want.EngineStats)
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
