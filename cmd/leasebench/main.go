// Command leasebench runs the paper's experiments on the simulated
// multicore: each experiment prints aligned text tables whose rows are the
// paper's data series (DESIGN.md maps them, EXPERIMENTS.md records
// results), and each cell of an experiment runs on its own with its full
// report.
//
// Usage:
//
//	leasebench -list
//	leasebench -exp fig2
//	leasebench -exp all [-quick] [-threads 2,4,8] [-window 1500000]
//	leasebench -exp fig2 -protocol tardis
//	leasebench -exp all -quick -parallel 4
//	leasebench -cell fig2/lease/t16 -hotlines 5
//	leasebench -cell 'fig3-counter/lease/t*' -threads 2,4,8 -spans -ledger
//	leasebench -cell fig2/lease/t16 -timeline t.json
//	leasebench -cell 'fig2/lease/t*' -threads 4,8,16 -invariants -faults
//
// -list, -exp and -cell select what runs; exactly one is given. -exp runs
// one experiment, or all. -cell runs the cells whose name matches a
// path.Match pattern through the same cell path (bench.MeasureCells) and
// prints each cell's JSON report (bench.Report) in declaration order. A
// cell is named <exp>/[<row key>/]<variant>/t<threads> and declared at the
// scale and -threads the host flags select, so a cell that -exp prints as
// FAILED reruns by its name under the same flags.
//
// -quick, -warm, -window, -protocol, -threads, -strict, -parallel,
// -cpuprofile and -memprofile are the host flags; bench.Host documents
// them. The other flags observe a -cell run and are a usage error without
// it; one left unset leaves the cell as declared. -faults adds
// faults.DefaultConfig, seeded from the cell's seed, keeping the cell's
// preemption schedule. A cell whose experiment records spans and the lease
// ledger records what the flags ask for instead. -timeline writes a Chrome
// trace-event file per cell, a failed one included, loadable in
// https://ui.perfetto.dev.
//
// A cell that fails (deadlock, livelock, panic, protocol or invariant
// violation, blown cycle budget) is named on stderr with the machine's
// state dump; the other cells and experiments still run and the exit
// status is 1. Under -exp a FAILED line under the experiment's tables
// names it too, and -strict stops after the failed experiment; under -cell
// its report carries the error, and -strict prints nothing after it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"leaserelease/internal/bench"
	"leaserelease/internal/faults"
	"leaserelease/internal/machine"
	"leaserelease/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// experiments is what -list names, -exp selects from and -cell matches; a
// test swaps in one that fails.
var experiments = bench.All()

// observed is what one cell's run leaves beside its Result: the recorder,
// allocated before the cells are submitted and read once they are back, the
// file the cell's timeline goes to, and the cell's report.
type observed struct {
	rec      *telemetry.Recorder
	timeline string
	rep      bench.Report
}

// run is main: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("leasebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	host := bench.AddHostFlags(fs)
	var (
		list    = fs.Bool("list", false, "list experiment ids and exit")
		exp     = fs.String("exp", "", "experiment id to run, or 'all'")
		pattern = fs.String("cell", "", "run the cells this name or path.Match pattern matches (fig3-counter/lease/t*) and print their reports")
	)
	// The flags registered after these observe a -cell run and apply to it
	// only.
	hostOrSelector := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { hostOrSelector[f.Name] = true })
	var (
		hotlines   = fs.Int("hotlines", 10, "rank the top-N contended cache lines (0 disables)")
		timeline   = fs.String("timeline", "", "write a Chrome trace-event timeline to this file (suffixed by the cell when several match)")
		spans      = fs.Bool("spans", false, "trace coherence-transaction spans and report the cycle accounting")
		ledger     = fs.Bool("ledger", false, "account per-line lease efficiency (granted/used/wasted cycles, ops absorbed, deferral inflicted)")
		invariants = fs.Bool("invariants", false, "attach the runtime invariant checker (violations fail the run)")
		faultsOn   = fs.Bool("faults", false, "add deterministic protocol-legal fault injection to the cell's config")
		seed       = fs.Uint64("seed", 0, "simulation seed (default: the cell's)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "leasebench: "+format+"\n", args...)
		return 2
	}
	observing, seedGiven := "", false // the first observation flag given; -seed given
	fs.Visit(func(f *flag.Flag) {
		if observing == "" && !hostOrSelector[f.Name] {
			observing = f.Name
		}
		seedGiven = seedGiven || f.Name == "seed"
	})
	selectors := 0
	for _, set := range []bool{*list, *exp != "", *pattern != ""} {
		if set {
			selectors++
		}
	}
	switch {
	case selectors == 0:
		fs.Usage()
		return 2
	case selectors > 1:
		return usage("-list, -exp and -cell each select what runs: give one")
	case *pattern == "" && observing != "":
		return usage("-%s observes a cell: it wants -cell", observing)
	case *hotlines < 0:
		return usage("-hotlines %d is negative", *hotlines)
	}
	menu := func(w io.Writer, indent string) {
		for _, e := range experiments {
			fmt.Fprintf(w, "%s%-20s %s\n", indent, e.ID, e.Paper)
		}
	}
	if *list {
		menu(stdout, "")
		return 0
	}
	selected := experiments
	if *exp != "" && *exp != "all" {
		selected = nil
		for _, e := range experiments {
			if e.ID == *exp {
				selected = []bench.Experiment{e}
			}
		}
		if selected == nil {
			// Fail fast with the full menu: a typo'd -exp should not cost a
			// trip through -list.
			fmt.Fprintf(stderr, "leasebench: unknown experiment %q; valid experiments:\n", *exp)
			menu(stderr, "  ")
			fmt.Fprintln(stderr, "  all                  run every experiment")
			return 2
		}
	}
	if err := host.Start(stderr); err != nil {
		return usage("%v", err)
	}
	// Tear down the pool and flush the profiles before the process ends.
	defer host.Close()
	p := host.Params
	threads := strings.ReplaceAll(strings.Trim(fmt.Sprint(p.Threads), "[]"), " ", ",")
	if *pattern == "" {
		return runExperiments(stdout, stderr, host, selected, *exp == "all", threads)
	}

	cells, err := bench.Cells(experiments, p, *pattern)
	if err != nil {
		return usage("%v", err)
	}
	if len(cells) == 0 {
		return usage("-cell %q matches no cell at -threads %s (cells are <exp>/[<row key>/]<variant>/t<threads>)", *pattern, threads)
	}
	obs := make([]observed, len(cells))
	for i := range cells {
		c, o := &cells[i], &obs[i]
		o.rec = telemetry.NewRecorder()
		if *spans || *timeline != "" {
			o.rec.EnableSpans() // with -timeline, spans become nested txn slices
		}
		if *ledger {
			o.rec.EnableLedger()
		}
		if o.timeline = *timeline; o.timeline != "" && len(cells) > 1 {
			o.timeline += "." + strings.ReplaceAll(c.Name, "/", ".")
		}
		o.rep = bench.Report{Cell: c.Name, Threads: c.Row.Threads, WarmCycles: p.Warm, WindowCycles: c.Window(p)}
		c.Options = bench.Options{Recorder: o.rec, Invariants: *invariants, HotLines: *hotlines}
		// The observation flags edit the config after the cell's own Edit,
		// and only the flags that were given.
		edit := c.Variant.Edit
		c.Variant.Edit = func(cfg *machine.Config, r bench.Row) {
			if edit != nil {
				edit(cfg, r)
			}
			if seedGiven {
				cfg.Seed = *seed
			}
			if *faultsOn {
				f := faults.DefaultConfig()
				f.Seed = cfg.Seed
				f.PreemptPermille, f.PreemptMin, f.PreemptMax, f.PreemptTargeted =
					cfg.Faults.PreemptPermille, cfg.Faults.PreemptMin, cfg.Faults.PreemptMax, cfg.Faults.PreemptTargeted
				cfg.Faults = f
			}
			o.rep.Seed, o.rep.Protocol, o.rep.FaultProfile = cfg.Seed, cfg.Protocol, cfg.Faults.Profile()
			if o.timeline != "" {
				o.rec.EnableTimeline(float64(cfg.ClockHz) / 1e6) // cycles per µs
			}
		}
	}
	res := bench.MeasureCells(p, cells)

	// report writes cell i's timeline file, failed or not (a failed cell's
	// timeline is its repro), then prints its report on out, after its name,
	// cause and dump on errOut when it failed. It returns false when the cell
	// failed or its timeline could not be written.
	report := func(out, errOut io.Writer, i int) bool {
		o := &obs[i]
		rep := &o.rep
		rep.Result = res[i]
		if o.timeline != "" {
			if err := writeTimeline(o.timeline, o.rec.Timeline); err != nil {
				fmt.Fprintf(errOut, "leasebench: %v\n", err)
				if rep.Err == nil {
					return false
				}
			} else {
				rep.TimelineFile = o.timeline
			}
		}
		if rep.Err != nil {
			bench.CellFailure{Cell: cells[i].Name, Err: rep.Err}.Print(errOut)
			rep.Error = rep.Err.Error()
			writeJSON(out, *rep)
			return false
		}
		if err := writeJSON(out, *rep); err != nil {
			fmt.Fprintf(errOut, "leasebench: %v\n", err)
			return false
		}
		return true
	}
	status := 0
	for i := range cells {
		if !report(stdout, stderr, i) {
			status = 1
			if host.Strict {
				// Print nothing more; the cells after this one have run and
				// still write their timelines.
				stdout, stderr = io.Discard, io.Discard
			}
		}
	}
	return status
}

// runExperiments runs the selected experiments on the started host, in
// order, each printing its tables, and reports their failed cells; it
// returns the exit status. all says -exp all selected them; threads is the
// host's thread counts as -threads spells them.
func runExperiments(stdout, stderr io.Writer, host *bench.Host, selected []bench.Experiment, all bool, threads string) int {
	p := host.Params
	// An experiment with no rows at these thread counts measures nothing: a
	// usage error asked for alone, one line in place of its tables in all.
	noRows := func(e bench.Experiment) string {
		if len(e.Sweep(p).Rows) > 0 {
			return ""
		}
		return fmt.Sprintf("%s has no rows at -threads %s", e.ID, threads)
	}
	if msg := noRows(selected[0]); msg != "" && !all {
		fmt.Fprintf(stderr, "leasebench: %s\n", msg)
		return 2
	}
	// runOne executes one experiment and reports its failed cells. An
	// escaping panic (which the sim kernel annotates with cycle/proc/event
	// context) is a failure too; either way the remaining experiments run.
	runOne := func(e bench.Experiment) (ok bool) {
		fmt.Fprintf(stdout, "## %s — %s\n", e.ID, e.Paper)
		if msg := noRows(e); msg != "" {
			fmt.Fprintf(stdout, "(%s)\n\n", msg)
			return true
		}
		start := time.Now()
		defer func() {
			if r := recover(); r != nil {
				ok = false
				fmt.Fprintf(stderr, "leasebench: experiment %s FAILED: %v\n", e.ID, r)
			}
			fmt.Fprintf(stdout, "(wall time %.1fs)\n\n", time.Since(start).Seconds())
		}()
		failed := e.Run(stdout, p)
		for _, f := range failed {
			f.Print(stderr)
		}
		return len(failed) == 0
	}
	status := 0
	for _, e := range selected {
		if !runOne(e) {
			status = 1
			if host.Strict {
				break
			}
		}
	}
	return status
}

func writeJSON(out io.Writer, rep bench.Report) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func writeTimeline(path string, tl *telemetry.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tl.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing timeline: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing timeline: %w", err)
	}
	return nil
}
