package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"leaserelease/internal/bench"
	"leaserelease/internal/machine"
)

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

// Usage errors exit 2 before anything runs, and say what would have been
// valid.
func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string // on stderr
	}{
		{[]string{"-exp", "fig9"}, []string{`unknown experiment "fig9"`, "  fig2 ", "  protocol-compare ", "  all "}},
		{[]string{"-exp", "fig2", "-protocol", "moesi"}, []string{`unknown -protocol "moesi"`, "msi, tardis"}},
		{[]string{"-exp", "fig2", "-threads", "2,x"}, []string{`bad thread count "x"`}},
		{[]string{"-exp", "fig2", "-threads", "65"}, []string{`bad thread count "65"`}},
		{[]string{"-compare", "a.json", "b.json"}, []string{"flag provided but not defined: -compare"}},
		{[]string{"-exp", "fig2", "-threshold", "5"}, []string{"flag provided but not defined: -threshold"}},
		{[]string{"-nosuchflag"}, []string{"flag provided but not defined"}},
		{[]string{"-perfjson", "x", "-exp", "table1"}, []string{"flag provided but not defined: -perfjson"}},
		{nil, []string{"-exp string"}},
		// The binary has no subcommands: a first argument that is no flag gets
		// the usage text.
		{[]string{"history", "run.json"}, []string{"Usage of leasebench", "-exp string"}},
		{[]string{"report"}, []string{"Usage of leasebench", "-exp string"}},
		{[]string{"-exp", "fig2", "-threads", "2,2"}, []string{"thread count 2 given twice"}},
		{[]string{"-exp", "fig2", "-quick", "-window", "0"}, []string{"-window wants at least one cycle"}},
		{[]string{"-exp", "fig2", "-quick", "-parallel", "-3"}, []string{"-parallel -3 is negative"}},
		{[]string{"-exp", "table1", "-quick", "-serve", ":0"}, []string{"flag provided but not defined: -serve"}},
		// An experiment asked for alone must measure something.
		{[]string{"-exp", "snapshot", "-threads", "1", "-quick"}, []string{"snapshot has no rows at -threads 1"}},
		{[]string{"-exp", "text-lowcontention", "-threads", "1,2,3", "-quick"}, []string{"text-lowcontention has no rows at -threads 1,2,3"}},
	} {
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

// -warm means what it means in leasesim, warm-up cycles excluded from the
// measurement, so -warm 0 is a run without warm-up and not a flag left unset.
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

// A failed cell fails its experiment and the process: the cell is named on
// stderr with its cause and the machine's state dump, stdout keeps the
// table and says FAILED under it, the exit status is 1, and the remaining
// experiments still run unless -strict.
func TestFailedCellExitsOne(t *testing.T) {
	panicky := func(d *machine.Direct) bench.OpFunc {
		return func(tid int, c *machine.Ctx) {
			c.Work(100)
			if c.Now() > 60_000 {
				panic("boom")
			}
		}
	}
	failing := bench.Experiment{ID: "failing", Paper: "one variant panics mid-window", Sweep: func(p bench.Params) bench.Sweep {
		return bench.Sweep{
			Rows:     []bench.Row{{Threads: 2}},
			Variants: []bench.Variant{{Name: "broken", Build: func(bench.Row) bench.Workload { return panicky }}},
			Tables: []bench.TableSpec{{Cols: []bench.Col{{Head: "broken Mops/s",
				Cell: func(res []bench.Result) any { return res[0].MopsPerSec }}}}},
		}
	}}
	table1 := experiment("table1")
	defer func(saved []bench.Experiment) { experiments = saved }(experiments)
	experiments = []bench.Experiment{failing, table1}

	status, out, errOut := leasebench("-exp", "all", "-quick", "-parallel", "1")
	if status != 1 {
		t.Errorf("status %d, want 1", status)
	}
	for _, want := range []string{"## failing — ", "2        0.000", "FAILED failing/broken/t2 (panic): ", "## table1 — ", "MAX_NUM_LEASES"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q:\n%s", want, out)
		}
	}
	for _, want := range []string{"leasebench: failing/broken/t2 FAILED (panic): ", "boom", "machine state at cycle"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr lacks %q:\n%s", want, errOut)
		}
	}

	status, out, _ = leasebench("-exp", "all", "-quick", "-parallel", "1", "-strict")
	if status != 1 || strings.Contains(out, "## table1") {
		t.Errorf("-strict: status %d, want 1 and nothing after the failed experiment:\n%s", status, out)
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
