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
//
// -protocol, -threads, -strict, -parallel, -cpuprofile and -memprofile
// are the host flags shared with cmd/leasesim; bench.Host
// documents them. Here -threads overrides the scale's thread counts, and
// the protocol-compare experiment runs both -protocol backends side by
// side with identical seeds.
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
	"strings"
	"time"

	"leaserelease/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// experiments is what -list names and -exp selects from.
var experiments = bench.All()

// run is main: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("leasebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// -protocol -threads -strict -parallel -cpuprofile -memprofile are
	// shared with cmd/leasesim; -threads overrides the scale's counts.
	host := bench.AddHostFlags(fs, "")
	var (
		exp    = fs.String("exp", "", "experiment id to run, or 'all'")
		list   = fs.Bool("list", false, "list experiment ids and exit")
		quick  = fs.Bool("quick", false, "small thread sweep and short windows")
		warm   = fs.Uint64("warm", 0, "warm-up cycles excluded from the measurement (default: the sweep scale's)")
		window = fs.Uint64("window", 0, "measurement window cycles (default: the sweep scale's)")
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
	p := bench.FullParams()
	if *quick {
		p = bench.QuickParams()
	}
	// A flag that was given wins over the scale, whatever its value.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "warm":
			p.Warm = *warm
		case "window":
			p.Window = *window
		}
	})
	if p.Window == 0 {
		fmt.Fprintln(stderr, "leasebench: -window wants at least one cycle")
		return 2
	}
	if err := host.Start("leasebench", stderr); err != nil {
		fmt.Fprintf(stderr, "leasebench: %v\n", err)
		return 2
	}
	p.Protocol, p.Pool = host.Protocol, host.Pool
	if host.Threads != nil {
		p.Threads = host.Threads
	}
	// An experiment with no rows at these thread counts measures nothing: a
	// usage error asked for alone, one line in place of its tables in all.
	noRows := func(e bench.Experiment) string {
		if len(e.Sweep(p).Rows) > 0 {
			return ""
		}
		return fmt.Sprintf("%s has no rows at -threads %s", e.ID, strings.ReplaceAll(strings.Trim(fmt.Sprint(p.Threads), "[]"), " ", ","))
	}
	if msg := noRows(selected[0]); msg != "" && *exp != "all" {
		host.Close()
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
			f.Print(stderr, "leasebench")
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
