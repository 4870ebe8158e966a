// Command leaseperf is the repository's benchmark: four paired base/lease
// workloads measured for host speed and paper fidelity, with per-layer
// probes and a traced pass. See ../README.md.
//
//	go run ./benchmarks/leaseperf -seed 1            # every workload, end-to-end metrics
//	go run ./benchmarks/leaseperf -seed 1 -trace 1   # plus the per-layer pass
//	go run ./benchmarks/leaseperf -check-repeat      # the suite twice; fails unless the two agree
//	go run ./benchmarks/leaseperf -workload hash64 -seed 3 -seconds 15 -trace 0
//
// With -workload the command runs that workload in this process and ends
// its standard output with one JSON line (correct, attempted, failed,
// metrics). Without it, each workload runs in a child process of its own,
// so it has a clean heap and its own resident-set peak.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		name        = flag.String("workload", "", "run only this workload, in this process (default: all, each in a child process)")
		seed        = flag.Uint64("seed", 1, "simulation seed of every cell; same seed, same inputs")
		seconds     = flag.Float64("seconds", 15, "repeat a workload until its repetitions have taken this long (never fewer than 3 of them)")
		trace       = flag.Int("trace", 0, "1 adds the per-layer pass: layer probes, one profiled repetition, spans")
		checkRepeat = flag.Bool("check-repeat", false, "run the suite twice and fail unless the two runs agree within the bounds")
		outDir      = flag.String("out", defaultOutDir, "directory for reports, spans and profiles")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	// A child of the suite leaves the layer probes to its parent, which
	// measures them once for all workloads.
	o := options{seed: *seed, seconds: *seconds, scale: 1, trace: *trace == 1,
		probes: os.Getenv(suiteChildEnv) == "", outDir: *outDir, log: os.Stdout}
	if err := run(*name, *checkRepeat, o); err != nil {
		fmt.Fprintln(os.Stderr, "leaseperf:", err)
		os.Exit(1)
	}
}

const (
	// defaultOutDir is inside the benchmark's own directory; the root
	// .gitignore names it.
	defaultOutDir = "benchmarks/.out"
	// suiteChildEnv is set by runSuite in the environment of its children.
	suiteChildEnv = "LEASEPERF_SUITE_CHILD"
)

func run(name string, checkRepeat bool, o options) error {
	switch {
	case name != "":
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		rep, err := runWorkload(w, o)
		if err != nil {
			return err
		}
		if err := writeJSON(reportPath(o.outDir, w.name, o.trace), rep); err != nil {
			return err
		}
		line, err := json.Marshal(rep.contract())
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		return failuresOf(rep)
	case checkRepeat:
		first, err := runSuite(o)
		if err != nil {
			return err
		}
		second, err := runSuite(o)
		if err != nil {
			return err
		}
		return compareRuns(o.log, first, second)
	default:
		_, err := runSuite(o)
		return err
	}
}

func reportPath(dir, workload string, traced bool) string {
	if traced {
		workload += "-traced"
	}
	return filepath.Join(dir, "report-"+workload+".json")
}

func failuresOf(reps ...*report) error {
	var all []string
	for _, r := range reps {
		all = append(all, r.Failures...)
	}
	if len(all) > 0 {
		return fmt.Errorf("%d checks failed:\n  %s", len(all), strings.Join(all, "\n  "))
	}
	return nil
}

// runSuite runs every workload in a child process, one after another, and
// writes the combined result. End-to-end metrics come from an untraced
// child; with o.trace a second, traced child gives the per-layer metrics.
// A failed check makes it return an error after everything has run.
func runSuite(o options) ([]*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var probes []metric
	if o.trace {
		fmt.Fprintf(o.log, "== layer probes (host time per call, median of %d batches)\n", probeBatches)
		probes = runProbes(probeBatch)
		printMetrics(o.log, probes)
	}
	child := func(w *workload, trace bool) (*report, error) {
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", o.outDir}
		if trace {
			args = append(args, "-trace", "1")
		}
		cmd := exec.Command(self, args...)
		cmd.Env = append(os.Environ(), suiteChildEnv+"=1")
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output()
		// Everything but the child's closing JSON line is its report.
		if i := bytes.LastIndexByte(bytes.TrimRight(out, "\n"), '\n'); i >= 0 {
			out = out[:i+1]
		}
		o.log.Write(out)
		var rep report
		b, err := os.ReadFile(reportPath(o.outDir, w.name, trace))
		if err == nil {
			err = json.Unmarshal(b, &rep)
		}
		if err != nil {
			return nil, fmt.Errorf("workload %s left no report (%v): %v", w.name, runErr, err)
		}
		return &rep, nil
	}
	var reps []*report
	for i := range workloads {
		rep, err := child(&workloads[i], false)
		if err != nil {
			return nil, err
		}
		if o.trace {
			traced, err := child(&workloads[i], true)
			if err != nil {
				return nil, err
			}
			rep.PerLayer = append(append([]metric(nil), probes...), traced.PerLayer...)
			rep.Attempted += traced.Attempted
			rep.Failed += traced.Failed
			rep.Failures = append(rep.Failures, traced.Failures...)
			rep.Notes = append(rep.Notes, traced.Notes...)
		}
		reps = append(reps, rep)
	}
	result := struct {
		Seed      uint64    `json:"seed"`
		Seconds   float64   `json:"seconds"`
		Workloads []*report `json:"workloads"`
	}{o.seed, o.seconds, reps}
	path := filepath.Join(o.outDir, "result.json")
	if err := writeJSON(path, result); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "== suite done in %.0f s, result in %s\n", time.Since(start).Seconds(), path)
	return reps, failuresOf(reps...)
}

// compareRuns prints, for every workload and end-to-end metric, how far the
// second run's median is from the first's, and fails if a host metric moved
// by more than its bound or a simulated one moved at all.
func compareRuns(w io.Writer, first, second []*report) error {
	fmt.Fprintf(w, "== check-repeat: second run against first\n")
	fmt.Fprintf(w, "%-16s %-24s %14s %14s %9s %9s  %s\n", "workload", "metric", "first", "second", "spread", "bound", "")
	var bad []string
	for i, a := range first {
		b := second[i]
		for _, d := range endToEnd {
			ma, mb := findMetric(a.EndToEnd, d.name), findMetric(b.EndToEnd, d.name)
			spread := relDiff(ma.Value, mb.Value)
			ok, bound := spread <= d.bound, fmt.Sprintf("%.1f%%", 100*d.bound)
			switch {
			case d.exact:
				ok, bound = ma.Value == mb.Value, "exact"
			case d.name == "setup_s":
				ok = ok || mb.Value-ma.Value <= setupFloorS
			}
			verdict := "ok"
			if !ok {
				verdict = "OUTSIDE"
				bad = append(bad, a.Workload+"/"+d.name)
			}
			fmt.Fprintf(w, "%-16s %-24s %14.6g %14.6g %8.2f%% %9s  %s\n", a.Workload, d.name, ma.Value, mb.Value, 100*spread, bound, verdict)
		}
		for _, c := range []struct {
			what string
			x, y interface{}
		}{{"sim_digest", a.SimDigest, b.SimDigest}, {"failed_share", a.failedShare(), b.failedShare()}} {
			verdict := "ok"
			if c.x != c.y {
				verdict = "OUTSIDE"
				bad = append(bad, a.Workload+"/"+c.what)
			}
			fmt.Fprintf(w, "%-16s %-24s %14v %14v %9s %9s  %s\n", a.Workload, c.what, c.x, c.y, "", "exact", verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("two runs of the same code disagree on %s", strings.Join(bad, ", "))
	}
	return nil
}

// printReport writes one workload's human-readable report: the end-to-end
// metrics of an untraced run, the per-layer metrics of either.
func printReport(w io.Writer, wl *workload, rep *report, cells [2]cellResult) {
	pass := "untraced"
	if rep.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d, %d threads, %d repetitions, %s\n", wl.name, rep.Seed, wl.threads, rep.Reps, pass)
	for i, c := range cells {
		fmt.Fprintf(w, "   %-5s window %d cycles: %d ops, %.3f Mops/s, %.2f msgs/op, %d L1 hits, %d L1 misses, digest %s\n",
			wl.cells[i].name, c.window, c.ops, c.mops(), ratio(float64(c.stats.TotalMsgs()), float64(c.ops)),
			c.stats.L1Hits, c.stats.L1Misses, c.digest)
	}
	if !rep.Traced {
		fmt.Fprintln(w, "   end-to-end (host metrics: median of the repetitions; sim metrics: exact for the seed)")
		printMetrics(w, rep.EndToEnd)
		fmt.Fprintf(w, "   %-34s %s\n", "sim_lease_speedup_x reference", wl.ref.describe(findMetric(rep.EndToEnd, "sim_lease_speedup_x").Value))
	}
	fmt.Fprintf(w, "   %-34s %14.6g %-13s (%d of %d checks)\n", "failed_share", rep.failedShare(), "fraction", rep.Failed, rep.Attempted)
	fmt.Fprintf(w, "   %-34s %s\n", "sim_digest", rep.SimDigest)
	fmt.Fprintln(w, "   per-layer")
	printMetrics(w, rep.PerLayer)
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "   note:", n)
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "   FAILED:", f)
	}
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "   %-34s %14.6g %-13s", m.Name, m.Value, m.Unit)
		if m.N > 1 {
			fmt.Fprintf(w, " min %.6g max %.6g n=%d", m.Min, m.Max, m.N)
		}
		fmt.Fprintln(w)
	}
}

// describe sets a measured lease speed-up beside the paper's figure and
// the one EXPERIMENTS.md records, with the error against each.
func (r reference) describe(got float64) string {
	if r.paper == 0 {
		return "unvalidated: neither the paper nor EXPERIMENTS.md gives a number for this cell"
	}
	return fmt.Sprintf("paper %.4gx (error %+.1f%%), recorded %.4gx (error %+.1f%%) - %s",
		r.paper, 100*(got/r.paper-1), r.recorded, 100*(got/r.recorded-1), r.note)
}
