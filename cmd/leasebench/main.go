// Command leasebench regenerates the paper's tables and figures on the
// simulated multicore. Each experiment prints an aligned text table whose
// rows correspond to the paper's data series (see DESIGN.md for the
// mapping and EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	leasebench -list
//	leasebench -exp fig2
//	leasebench -exp all [-quick] [-threads 2,4,8] [-window 1500000]
//	leasebench -exp fig2 -protocol tardis
//	leasebench -exp protocol-compare -quick
//	leasebench -exp all -quick -parallel 4
//	leasebench -exp all -serve :9090
//	leasebench -compare old.json new.json [-threshold 5]
//	leasebench history [-dir .leasehistory] [-note s] run.json...
//	leasebench report [-dir .leasehistory] [-o lease-report.html] [run.json...]
//
// -protocol, -threads, -strict, -serve, -parallel, -cpuprofile and
// -memprofile are the host flags shared with cmd/leasesim; bench.Host
// documents them. Here -threads overrides the scale's thread counts, and
// the protocol-compare experiment runs both -protocol backends side by
// side with identical seeds.
//
// -compare diffs two `leasesim -json` report files per configuration —
// structure, threads, lease, seed, fault profile and protocol — on ops,
// throughput, latency percentiles and messages per op; changes that
// regress by more than -threshold percent are marked '!', a one-line
// verdict goes to stderr, and the exit status is 1 when any exist.
// `history` appends per-run summary metrics from `leasesim -json` files
// to an append-only JSONL store keyed by configuration and git revision;
// `report` renders the store plus optional current-run files into a
// single self-contained HTML report (sweep tables, histogram sparklines,
// lease-ledger rankings, cross-run trend lines — no external assets).
//
// A cell that fails (deadlock, livelock, panic, protocol violation, blown
// cycle budget) is named on stderr with the machine's state dump and on a
// FAILED line under its experiment's tables; the other cells and
// experiments still run and the exit status is 1. -strict stops at the
// first failed experiment instead.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"leaserelease/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// experiments is what -list names and -exp selects from.
var experiments = bench.All()

// run is main: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	// Subcommands of the report pipeline dispatch before the global flag
	// set: `leasebench history ...` and `leasebench report ...` have their
	// own flags (see runHistory/runReport).
	if len(args) > 0 {
		switch args[0] {
		case "history":
			return runHistory(args[1:])
		case "report":
			return runReport(args[1:])
		}
	}
	fs := flag.NewFlagSet("leasebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// -protocol -threads -strict -serve -parallel -cpuprofile -memprofile
	// are shared with cmd/leasesim; -threads overrides the scale's counts.
	host := bench.AddHostFlags(fs, "")
	var (
		exp    = fs.String("exp", "", "experiment id to run, or 'all'")
		list   = fs.Bool("list", false, "list experiment ids and exit")
		quick  = fs.Bool("quick", false, "small thread sweep and short windows")
		warm   = fs.Uint64("warm", 0, "warmup cycles: an override of the sweep scale's, 0 keeps it (leasesim's -warm is a different flag: a plain value with its own default)")
		window = fs.Uint64("window", 0, "measurement window cycles (override)")

		compare   = fs.Bool("compare", false, "compare two leasesim -json report files: leasebench -compare old.json new.json")
		threshold = fs.Float64("threshold", 5, "with -compare, highlight regressions beyond this percentage (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
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
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "leasebench: -compare wants exactly two files: old.json new.json")
			return 2
		}
		oldReps, err := bench.ReadReportFile(fs.Arg(0))
		if err != nil {
			fmt.Fprintf(stderr, "leasebench: -compare: %v\n", err)
			return 2
		}
		newReps, err := bench.ReadReportFile(fs.Arg(1))
		if err != nil {
			fmt.Fprintf(stderr, "leasebench: -compare: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "## compare %s -> %s\n", fs.Arg(0), fs.Arg(1))
		regressions, compared := bench.CompareReports(stdout, oldReps, newReps, *threshold)
		// One-line verdict on stderr so CI logs carry the outcome without
		// scraping the stdout table.
		verdict := "OK"
		if regressions > 0 {
			verdict = "REGRESSED"
		}
		fmt.Fprintf(stderr, "leasebench: -compare %s: %d configs compared, %d regressions beyond %.1f%%\n",
			verdict, compared, regressions, *threshold)
		if regressions > 0 {
			return 1
		}
		return 0
	}
	if *exp == "" {
		fs.Usage()
		return 2
	}
	selected := experiments
	if *exp != "all" {
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
	if err := host.Start("leasebench", stderr); err != nil {
		fmt.Fprintf(stderr, "leasebench: %v\n", err)
		return 2
	}

	p := bench.FullParams()
	if *quick {
		p = bench.QuickParams()
	}
	p.Protocol, p.Pool, p.Progress = host.Protocol, host.Pool, host.Progress
	if host.Threads != nil {
		p.Threads = host.Threads
	}
	if *warm > 0 {
		p.Warm = *warm
	}
	if *window > 0 {
		p.Window = *window
	}
	// runOne executes one experiment and reports its failed cells. An
	// escaping panic (which the sim kernel annotates with cycle/proc/event
	// context) is a failure too; either way the remaining experiments run.
	runOne := func(e bench.Experiment) (ok bool) {
		fmt.Fprintf(stdout, "## %s — %s\n", e.ID, e.Paper)
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
			fmt.Fprintf(stderr, "leasebench: %s FAILED (%s): %s\n", f.Cell, f.Err.Reason, f.Err.Detail)
			if f.Err.Dump != nil {
				fmt.Fprint(stderr, f.Err.Dump)
			}
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
	// Tear down the pool and flush the profiles before the process ends.
	host.Close()
	return status
}

// runHistory implements `leasebench history [-dir D] [-note s] run.json...`:
// every report in the given `leasesim -json` files is summarized into one
// line of the append-only JSONL store, keyed by configuration and the
// working tree's git revision.
func runHistory(args []string) int {
	fs := flag.NewFlagSet("history", flag.ExitOnError)
	dir := fs.String("dir", ".leasehistory", "history store directory")
	note := fs.String("note", "", "free-form note attached to each entry")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: leasebench history [-dir D] [-note s] run.json...")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	var reports []bench.Report
	for _, path := range fs.Args() {
		reps, err := bench.ReadReportFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "leasebench: history: %v\n", err)
			return 2
		}
		reports = append(reports, reps...)
	}
	entries, err := bench.AppendHistory(*dir, bench.GitSHA(), *note, reports, time.Now())
	if err != nil {
		fmt.Fprintf(os.Stderr, "leasebench: history: %v\n", err)
		return 1
	}
	for _, e := range entries {
		fmt.Printf("recorded %s (%.3f Mops/s)\n", e.Key, e.MopsPerSec)
	}
	fmt.Printf("%d entries appended to %s\n", len(entries), *dir)
	return 0
}

// runReport implements `leasebench report [-dir D] [-o F] [run.json...]`:
// render the self-contained HTML report from the history store plus any
// current-run report files (which supply the sweep table, histogram
// sparklines, and ledger rankings).
func runReport(args []string) int {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	dir := fs.String("dir", ".leasehistory", "history store directory")
	out := fs.String("o", "lease-report.html", "output HTML file")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: leasebench report [-dir D] [-o F] [run.json...]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	var current []bench.Report
	for _, path := range fs.Args() {
		reps, err := bench.ReadReportFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "leasebench: report: %v\n", err)
			return 2
		}
		current = append(current, reps...)
	}
	history, err := bench.ReadHistory(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "leasebench: report: %v\n", err)
		return 1
	}
	if len(current) == 0 && len(history) == 0 {
		fmt.Fprintf(os.Stderr, "leasebench: report: nothing to render (no report files, empty history in %s)\n", *dir)
		return 1
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "leasebench: report: %v\n", err)
		return 1
	}
	if err := bench.WriteHTMLReport(f, current, history, bench.GitSHA(), time.Now()); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "leasebench: report: %v\n", err)
		return 1
	}
	fmt.Printf("report written to %s (%d current runs, %d history entries)\n",
		*out, len(current), len(history))
	return 0
}
