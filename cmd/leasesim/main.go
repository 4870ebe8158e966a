// Command leasesim runs configurable simulations and dumps full hardware
// counters — an explorer/debugger for the simulated machine.
//
// Usage:
//
//	leasesim -ds stack -threads 8 -lease -cycles 1000000
//	leasesim -ds counter -threads 16 -priority
//	leasesim -ds tl2 -threads 8 -lease -multilease sw
//	leasesim -ds stack -threads 16 -lease -json -hotlines 5 -timeline t.json
//	leasesim -ds stack -threads 4,8,16 -lease -invariants -faults
//	leasesim -ds stack -threads 1,2,4,8,16,32 -lease -parallel 4
//	leasesim -ds counter -threads 8 -lease -protocol tardis -spans
//
// -protocol, -threads, -strict, -parallel, -cpuprofile and -memprofile
// are the host flags shared with cmd/leasebench; bench.Host documents them.
// An invocation is a one-variant sweep (bench.Sweep): one row per -threads
// count, the variant named lease or base after -lease, its config edited
// from the flags. The cells run on the pool and their reports are printed
// in sweep order. Each -json report carries
// the event kernel's host-side counters (events executed, how core wake-ups
// were paid for) as "engine_stats".
// A failing cell (deadlock, panic, protocol/invariant violation) is
// reported on stderr by its cell name (counter/lease/t2) with a machine
// state dump, the rest of the sweep is still printed, and the exit status
// is 1; -strict instead stops printing at the first failed cell.
// -invariants attaches the runtime invariant checker; -faults enables
// deterministic protocol-legal fault injection (seeded from -seed, so
// failures replay exactly). -preempt N deschedules
// cores at N permille of memory accesses for -preemptmin..-preemptmax
// cycles (leases keep expiring while the core sleeps); -preempttargeted
// restricts preemption to lease/write holders — the adversarial
// stalled-holder schedule. -controller enables the adaptive
// lease-duration controller (per-site exponential backoff of granted
// durations after involuntary releases).
//
// Every run records telemetry (latency/hold-time/queue histograms and the
// per-line contention profile). -spans additionally records per-coherence-
// transaction spans and reports the critical-path cycle accounting ("where
// the cycles went"); -ledger records the per-line lease-efficiency ledger
// (granted vs. used cycles, ops absorbed per lease, deferral inflicted)
// and prints its top-N tables — and, since the ledger reads completed spans,
// the span accounting too; -json switches the report to machine-
// readable JSON; -timeline additionally writes a Chrome trace-event file
// loadable in chrome://tracing or https://ui.perfetto.dev showing each
// core's lease intervals — and, with spans, nested transaction slices with
// flow arrows — on the simulated timeline.
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
	"leaserelease/internal/stm"
	"leaserelease/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// findStructure is what -ds looks up; a test swaps in a structure that fails.
var findStructure = bench.FindStructure

// observed is what one row's cell leaves beside its Result: the recorder,
// allocated before the sweep is submitted and read once it is back, the
// file the row's timeline goes to, and the row's report.
type observed struct {
	rec      *telemetry.Recorder
	timeline string
	rep      bench.Report
}

// run is main: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("leasesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// -protocol -threads -strict -parallel -cpuprofile -memprofile are
	// shared with cmd/leasebench.
	host := bench.AddHostFlags(fs, "8")
	menu := bench.StructureNames() // the default is its first entry
	var (
		ds              = fs.String("ds", menu[0], "data structure: "+strings.Join(menu, "|"))
		lease           = fs.Bool("lease", false, "enable the paper's lease placement")
		leaseTime       = fs.Uint64("leasetime", 20000, "lease duration in cycles")
		maxLease        = fs.Uint64("maxleasetime", 20000, "MAX_LEASE_TIME in cycles")
		cycles          = fs.Uint64("cycles", 1_000_000, "cycles to simulate")
		warm            = fs.Uint64("warm", 100_000, "warm-up cycles excluded from the measurement")
		priority        = fs.Bool("priority", false, "regular requests break leases (§5)")
		mesi            = fs.Bool("mesi", false, "MESI exclusive-clean read fills (§8)")
		predictor       = fs.Bool("predictor", false, "enable the §5 speculative lease predictor")
		multi           = fs.String("multilease", "hw", "tl2 multilease flavor under -lease: hw|sw|single|off")
		seed            = fs.Uint64("seed", 1, "simulation seed")
		jsonOut         = fs.Bool("json", false, "emit each run report as JSON on stdout")
		hotlines        = fs.Int("hotlines", 10, "rank the top-N contended cache lines (0 disables)")
		timeline        = fs.String("timeline", "", "write a Chrome trace-event timeline to this file")
		invariants      = fs.Bool("invariants", false, "attach the runtime invariant checker (violations fail the run)")
		faultsOn        = fs.Bool("faults", false, "enable deterministic protocol-legal fault injection")
		preempt         = fs.Int("preempt", 0, "core-preemption probability in permille per memory access (0 disables)")
		preemptMin      = fs.Uint64("preemptmin", 500, "minimum preemption duration in cycles")
		preemptMax      = fs.Uint64("preemptmax", 40000, "maximum preemption duration in cycles")
		preemptTargeted = fs.Bool("preempttargeted", false, "preempt only lease/write holders (adversarial stalled-holder schedule)")
		controller      = fs.Bool("controller", false, "enable the adaptive lease-duration controller")
		spans           = fs.Bool("spans", false, "trace coherence-transaction spans and report the cycle accounting")
		ledger          = fs.Bool("ledger", false, "account per-line lease efficiency (granted/used/wasted cycles, ops absorbed, deferral inflicted)")
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
	structure, ok := findStructure(*ds)
	if !ok {
		// Fail fast with the full menu: a typo should not cost a trip to -help.
		return usage("unknown -ds %q (valid: %s)", *ds, strings.Join(menu, ", "))
	}
	if *preempt < 0 || *preempt > 1000 {
		return usage("-preempt %d out of range (want 0..1000 permille)", *preempt)
	}
	// The injector reads PreemptMax 0 as "no preemption" and a minimum above
	// the maximum as a fixed duration; neither may stand in for what was asked.
	switch {
	case *preemptMax == 0:
		return usage("-preemptmax wants at least one cycle")
	case *preemptMin > *preemptMax:
		return usage("-preemptmin %d exceeds -preemptmax %d", *preemptMin, *preemptMax)
	case *hotlines < 0:
		return usage("-hotlines %d is negative", *hotlines)
	// A zero duration builds the base structure: it may not report as leased.
	case *lease && *leaseTime == 0:
		return usage("-lease wants a -leasetime of at least one cycle")
	case structure.MultiLease && parseMulti(*multi) < 0:
		return usage("bad -multilease %q", *multi)
	// -multilease is the leased variant's flavor, and off leases nothing.
	case *lease && structure.MultiLease && parseMulti(*multi) == stm.NoLease:
		return usage("-lease wants a -multilease other than off")
	}
	if *cycles == 0 {
		return usage("-cycles wants at least one cycle")
	}
	if err := host.Start("leasesim", stderr); err != nil {
		return usage("%v", err)
	}
	// Tear down the pool and flush the profiles before the process ends.
	defer host.Close()
	if len(host.Threads) == 0 {
		return usage("-threads wants at least one thread count")
	}

	rows := make([]bench.Row, len(host.Threads))
	obs := make([]observed, len(host.Threads))
	for i, n := range host.Threads {
		rows[i] = bench.Row{Threads: n, Val: i} // Val: the row's index in obs
		o := &obs[i]
		o.rec = telemetry.NewRecorder()
		if *spans || *timeline != "" {
			o.rec.EnableSpans() // with -timeline, spans become nested txn slices
		}
		if *ledger {
			o.rec.EnableLedger()
		}
		if o.timeline = *timeline; o.timeline != "" && len(host.Threads) > 1 {
			o.timeline = fmt.Sprintf("%s.t%d", o.timeline, n)
		}
		o.rep = bench.Report{DS: *ds, Threads: n, Lease: *lease, Seed: *seed,
			WarmCycles: *warm, WindowCycles: *cycles, Protocol: host.Protocol}
	}
	v := bench.Variant{Name: "base", Edit: func(cfg *machine.Config, _ bench.Row) {
		cfg.Lease.MaxLeaseTime = *maxLease
		cfg.RegularBreaksLease = *priority
		cfg.MESI = *mesi
		cfg.Predictor = *predictor
		cfg.Seed = *seed
		if *faultsOn {
			cfg.Faults = faults.DefaultConfig()
			cfg.Faults.Seed = *seed
		}
		if *preempt > 0 {
			cfg.Faults.Seed = *seed
			cfg.Faults.PreemptPermille = *preempt
			cfg.Faults.PreemptMin = *preemptMin
			cfg.Faults.PreemptMax = *preemptMax
			cfg.Faults.PreemptTargeted = *preemptTargeted
		}
		cfg.Controller = *controller
	}}
	lt := uint64(0)
	if *lease {
		v.Name, lt = "lease", *leaseTime
	}
	v.Run = func(p bench.Params, cfg machine.Config, r bench.Row) bench.Result {
		o := &obs[r.Val]
		o.rep.FaultProfile = cfg.Faults.Profile()
		if o.timeline != "" {
			o.rec.EnableTimeline(float64(cfg.ClockHz) / 1e6) // cycles per µs
		}
		var aborts uint64
		build := structure.Build(bench.StructureOpts{Lease: lt, TL2Mode: parseMulti(*multi), Aborts: &aborts})
		res := bench.ThroughputOpts(cfg, r.Threads, p.Warm, p.Window, build,
			bench.Options{Recorder: o.rec, Invariants: *invariants})
		if res.Err == nil {
			res.Aborts = aborts
			res.HotLines = bench.HotLineRows(o.rec, *hotlines)
		}
		return res
	}
	sweep := bench.Sweep{Rows: rows, Variants: []bench.Variant{v}}
	res := sweep.Measure(bench.Params{Warm: *warm, Window: *cycles, Pool: host.Pool, Protocol: host.Protocol})

	// report prints row i: a failed cell's name, cause and dump on errOut
	// (and its -json report on out), or the cell's timeline file and then
	// its report, as text or -json. It returns false when the row failed.
	report := func(out, errOut io.Writer, i int) bool {
		o := &obs[i]
		rep := &o.rep
		rep.Result = res[i][0]
		if rep.Err != nil {
			bench.CellFailure{Cell: bench.CellName(*ds, rows[i], v), Err: rep.Err}.Print(errOut, "leasesim")
			rep.Error = rep.Err.Error()
			if *jsonOut {
				writeJSON(out, *rep)
			}
			return false
		}
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
	for i := range rows {
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

// parseMulti maps a -multilease flavor to an stm mode, or -1 if unknown.
func parseMulti(s string) stm.LeaseMode {
	switch s {
	case "hw":
		return stm.HWMulti
	case "sw":
		return stm.SWMulti
	case "single":
		return stm.SingleFirst
	case "off":
		return stm.NoLease
	}
	return -1
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
	fmt.Fprintf(out, "ds=%s threads=%d lease=%v%s window=%d cycles\n", rep.DS, rep.Threads, rep.Lease, proto, rep.Cycles)
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
