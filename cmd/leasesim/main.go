// Command leasesim runs declared cells one at a time and dumps their full
// hardware counters — an explorer/debugger for the simulated machine.
//
// Usage:
//
//	leasesim -cell fig2/lease/t16 -hotlines 5
//	leasesim -cell 'fig3-counter/lease/t*' -threads 2,4,8 -spans
//	leasesim -cell fig4-tl2/base/t8 -json
//	leasesim -cell fig2/lease/t16 -json -timeline t.json
//	leasesim -cell 'fig2/lease/t*' -threads 4,8,16 -invariants -faults
//	leasesim -cell 'degradation/rate5/lease+ctrl/t8' -threads 8 -ledger
//	leasesim -cell fig3-counter/lease/t8 -protocol tardis -spans
//
// A cell is one row × variant of an experiment cmd/leasebench runs, named
// as leasebench names it: <exp>/[<row key>/]<variant>/t<threads>. -cell is
// a path.Match pattern over the cells of every experiment, declared at the
// scale and -threads leasebench would use, so a cell that leasebench prints
// as FAILED reruns here by its name under the same scale flags. A pattern
// that matches no cell is a usage error.
//
// -quick, -warm, -window, -protocol, -threads, -strict, -parallel,
// -cpuprofile and -memprofile are the host flags shared with
// cmd/leasebench; bench.Host documents them. The matching cells run on the
// pool through the one cell path (bench.MeasureCells) and their reports are
// printed in declaration order. Each -json report carries the event
// kernel's host-side counters (events executed, how core wake-ups were paid
// for) as "engine_stats". A failing cell (deadlock, panic,
// protocol/invariant violation) is reported on stderr by its cell name with
// a machine state dump, the other cells are still printed, and the exit
// status is 1; -strict instead stops printing at the first failed cell.
//
// The other flags observe a cell; one left unset leaves the cell as
// declared. -invariants attaches the runtime invariant checker. -faults adds
// deterministic protocol-legal fault injection (faults.DefaultConfig,
// seeded from the cell's seed, so failures replay exactly) to the cell's
// config, keeping its preemption schedule. -seed replaces the cell's
// simulation seed.
//
// Every run records telemetry (latency/hold-time/queue histograms and the
// per-line contention profile); a cell whose experiment records spans and
// the lease ledger records what this run's flags ask for instead, which
// leaves its numbers alone. -spans additionally records per-coherence-
// transaction spans and reports the critical-path cycle accounting ("where
// the cycles went"); -ledger records the per-line lease-efficiency ledger
// (granted vs. used cycles, ops absorbed per lease, deferral inflicted)
// and prints its top-N tables — and, since the ledger reads completed spans,
// the span accounting too; -json switches the report to machine-
// readable JSON; -timeline additionally writes a Chrome trace-event file
// per cell, loadable in chrome://tracing or https://ui.perfetto.dev, showing
// each core's lease intervals — and, with spans, nested transaction slices
// with flow arrows — on the simulated timeline.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"leaserelease/internal/bench"
	"leaserelease/internal/faults"
	"leaserelease/internal/machine"
	"leaserelease/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// experiments is what -cell matches; a test swaps in one that fails.
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
	fs := flag.NewFlagSet("leasesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// -quick -warm -window -protocol -threads -strict -parallel -cpuprofile
	// -memprofile are shared with cmd/leasebench.
	host := bench.AddHostFlags(fs)
	var (
		pattern    = fs.String("cell", "", "cell name or path.Match pattern, as leasebench names cells (fig3-counter/lease/t16)")
		seed       = fs.Uint64("seed", 0, "simulation seed (default: the cell's)")
		jsonOut    = fs.Bool("json", false, "emit each run report as JSON on stdout")
		hotlines   = fs.Int("hotlines", 10, "rank the top-N contended cache lines (0 disables)")
		timeline   = fs.String("timeline", "", "write a Chrome trace-event timeline to this file (suffixed by the cell when several match)")
		invariants = fs.Bool("invariants", false, "attach the runtime invariant checker (violations fail the run)")
		faultsOn   = fs.Bool("faults", false, "add deterministic protocol-legal fault injection to the cell's config")
		spans      = fs.Bool("spans", false, "trace coherence-transaction spans and report the cycle accounting")
		ledger     = fs.Bool("ledger", false, "account per-line lease efficiency (granted/used/wasted cycles, ops absorbed, deferral inflicted)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "leasesim: "+format+"\n", args...)
		return 2
	}
	switch {
	case *pattern == "":
		return usage("-cell wants a cell name or pattern (leasebench -list names the experiments)")
	case *hotlines < 0:
		return usage("-hotlines %d is negative", *hotlines)
	}
	seedGiven := false
	fs.Visit(func(f *flag.Flag) { seedGiven = seedGiven || f.Name == "seed" })
	if err := host.Start("leasesim", stderr); err != nil {
		return usage("%v", err)
	}
	// Tear down the pool and flush the profiles before the process ends.
	defer host.Close()
	p := host.Params
	cells, err := bench.Cells(experiments, p, *pattern)
	if err != nil {
		return usage("%v", err)
	}
	if len(cells) == 0 {
		return usage("-cell %q matches no cell at -threads %s (cells are <exp>/[<row key>/]<variant>/t<threads>)",
			*pattern, strings.ReplaceAll(strings.Trim(fmt.Sprint(p.Threads), "[]"), " ", ","))
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
		c.Options = bench.Options{Recorder: o.rec, Invariants: *invariants}
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

	// report prints cell i: its name, cause and dump on errOut (and its
	// -json report on out) when it failed, or its timeline file and then
	// its report, as text or -json. It returns false when the cell failed.
	report := func(out, errOut io.Writer, i int) bool {
		o := &obs[i]
		rep := &o.rep
		rep.Result = res[i]
		if rep.Err != nil {
			bench.CellFailure{Cell: cells[i].Name, Err: rep.Err}.Print(errOut, "leasesim")
			rep.Error = rep.Err.Error()
			if *jsonOut {
				writeJSON(out, *rep)
			}
			return false
		}
		rep.HotLines = bench.HotLineRows(o.rec, *hotlines)
		if o.timeline != "" {
			if err := writeTimeline(o.timeline, o.rec.Timeline); err != nil {
				fmt.Fprintf(errOut, "leasesim: %v\n", err)
				return false
			}
			rep.TimelineFile = o.timeline
		}
		if !*jsonOut {
			printText(out, *rep, o.rec.Lines.Len())
			return true
		}
		if err := writeJSON(out, *rep); err != nil {
			fmt.Fprintf(errOut, "leasesim: %v\n", err)
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

// printText writes one cell's report as text; lines is how many lines the
// recorder profiled, of which rep.HotLines are the top.
func printText(out io.Writer, rep bench.Report, lines int) {
	proto := ""
	if rep.Protocol != "" {
		proto = " protocol=" + rep.Protocol
	}
	fmt.Fprintf(out, "cell=%s threads=%d%s window=%d cycles\n", rep.Cell, rep.Threads, proto, rep.Cycles)
	fmt.Fprintf(out, "ops            %d\n", rep.Ops)
	fmt.Fprintf(out, "throughput     %.3f Mops/s\n", rep.MopsPerSec)
	fmt.Fprintf(out, "energy         %.3f nJ/op\n", rep.NJPerOp)
	fmt.Fprintf(out, "L1 misses/op   %.3f\n", rep.MissesPerOp)
	fmt.Fprintf(out, "messages/op    %.3f\n", rep.MsgsPerOp)
	fmt.Fprintf(out, "CAS fails/op   %.3f\n", rep.CASFailsPerOp)
	fmt.Fprintf(out, "fairness       %.3f\n", rep.Fairness)
	if rep.Aborts > 0 {
		fmt.Fprintf(out, "tl2 aborts     %d (warm+window)\n", rep.Aborts)
	}

	fmt.Fprintln(out, "\nlatency distributions (cycles):")
	printDist := func(name string, s *telemetry.Summary) {
		if s == nil || s.Count == 0 {
			return
		}
		fmt.Fprintf(out, "%-14s %s\n", name, s)
	}
	printDist("op latency", rep.OpLatency)
	printDist("lease hold", rep.LeaseHold)
	printDist("probe defer", rep.ProbeDefer)
	printDist("dir queue", rep.DirQueue)

	if t := rep.Txns; t != nil && t.Count > 0 {
		fmt.Fprintf(out, "\ntransaction cycle accounting (%d txns, %d deferred):\n",
			t.Count, t.Deferred)
		printPhases := func(total uint64, ph telemetry.TxnPhases) {
			for i, v := range ph.Vec() {
				pct := 0.0
				if total > 0 {
					pct = 100 * float64(v) / float64(total)
				}
				fmt.Fprintf(out, "  %-14s %14d cycles %6.1f%%\n",
					telemetry.PhaseName(telemetry.Phase(i), rep.Protocol), v, pct)
			}
		}
		fmt.Fprintf(out, "span critical path (%d cycles):\n", t.TotalCycles)
		printPhases(t.TotalCycles, t.Phases)
		if t.Ops > 0 && t.OpPhases != nil {
			fmt.Fprintf(out, "measured ops (%d ops, %d cycles; %d in txns, %d l1+compute):\n",
				t.Ops, t.OpCycles, t.OpTxnCycles, t.OpOtherCycles)
			printPhases(t.OpCycles, *t.OpPhases)
			pct := 0.0
			if t.OpCycles > 0 {
				pct = 100 * float64(t.OpOtherCycles) / float64(t.OpCycles)
			}
			fmt.Fprintf(out, "  %-14s %14d cycles %6.1f%%\n", "l1+compute", t.OpOtherCycles, pct)
		}
	}

	if len(rep.HotLines) > 0 {
		fmt.Fprintf(out, "\nhot lines (top %d of %d):\n", len(rep.HotLines), lines)
		fmt.Fprintf(out, "%-12s %10s %10s %8s %10s %10s %8s %8s\n",
			"line", "score", "msgs", "invals", "deferred", "defcycles", "leases", "maxdirq")
		for _, h := range rep.HotLines {
			fmt.Fprintf(out, "%-12s %10d %10d %8d %10d %10d %8d %8d\n",
				h.Line, h.Score, h.Msgs, h.Invals, h.Deferred, h.DeferredCycles, h.Leases, h.MaxQueue)
		}
	}

	if led := rep.LeaseLedger; led != nil {
		fmt.Fprintf(out, "\nlease-efficiency ledger (%d leases closed, %d expired, %d open at end):\n",
			led.Leases, led.Expired, led.OpenAtEnd)
		fmt.Fprintf(out, "granted %d cycles, used %d (efficiency %.3f), unused %d, wasted %d\n",
			led.GrantedCycles, led.UsedCycles, led.Efficiency,
			led.UnusedCycles, led.UnusedCycles+led.ExpiredIdleCycles)
		fmt.Fprintf(out, "ops absorbed %d (%.1f per lease), deferral inflicted %d cycles over %d txns\n",
			led.OpsUnder, led.Amortization, led.DeferInflictedCycles, led.DeferredTxns)
		printRanking := func(title string, rows []telemetry.LedgerLineSummary) {
			if len(rows) == 0 {
				return
			}
			fmt.Fprintf(out, "%s:\n", title)
			fmt.Fprintf(out, "%-12s %8s %8s %10s %10s %10s %6s %9s %10s %10s\n",
				"line", "leases", "expired", "granted", "used", "wasted", "eff", "ops/lease", "deferinfl", "hotscore")
			for _, l := range rows {
				fmt.Fprintf(out, "%-12s %8d %8d %10d %10d %10d %6.3f %9.1f %10d %10d\n",
					l.Line, l.Leases, l.Expired, l.GrantedCycles, l.UsedCycles,
					l.WastedCycles, l.Efficiency, l.Amortization,
					l.DeferInflictedCycles, l.HotScore)
			}
		}
		printRanking("top wasted cycles", led.TopWasted)
		printRanking("top deferral inflicted", led.TopDeferInflicted)
	}

	if rep.TimelineFile != "" {
		fmt.Fprintf(out, "\ntimeline written to %s (open in chrome://tracing or ui.perfetto.dev)\n", rep.TimelineFile)
	}

	fmt.Fprintln(out, "\nwindow counters:")
	fmt.Fprintln(out, rep.Window)
}
