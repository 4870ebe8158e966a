// Command leasesim runs configurable simulations and dumps full hardware
// counters — an explorer/debugger for the simulated machine.
//
// Usage:
//
//	leasesim -ds stack -threads 8 -lease -cycles 1000000
//	leasesim -ds counter -threads 16 -priority
//	leasesim -ds tl2 -threads 8 -multilease sw
//	leasesim -ds stack -threads 16 -lease -json -hotlines 5 -timeline t.json
//	leasesim -ds stack -threads 4,8,16 -lease -invariants -faults
//	leasesim -ds stack -threads 1,2,4,8,16,32 -lease -parallel 4
//	leasesim -ds counter -threads 8 -lease -protocol tardis -spans
//
// -protocol, -threads, -strict, -serve, -parallel, -cpuprofile and
// -memprofile are the host flags shared with cmd/leasebench; bench.Host
// documents them. Each -threads count is one cell, with stdout/stderr
// buffered per cell and emitted in sweep order. Each -json report carries
// the event kernel's host-side counters (events executed, how core wake-ups
// were paid for) as "engine_stats".
// A failing cell (deadlock, panic, protocol/invariant violation) is
// reported on stderr with a machine state dump, the rest of the sweep
// still runs, and the exit status is 1; -strict instead stops emitting at
// the first failed cell. -invariants attaches the runtime invariant
// checker; -faults enables deterministic protocol-legal fault injection
// (seeded from -seed, so failures replay exactly). -preempt N deschedules
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
// and prints its top-N tables; -json switches the report to machine-
// readable JSON (-compactbuckets shrinks histogram bucket arrays to
// [lo,count] pairs there);
// -timeline additionally writes a Chrome trace-event file loadable in
// chrome://tracing or https://ui.perfetto.dev showing each core's lease
// intervals — and, with spans, nested transaction slices with flow arrows —
// on the simulated timeline.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"leaserelease/internal/bench"
	"leaserelease/internal/faults"
	"leaserelease/internal/machine"
	"leaserelease/internal/sim"
	"leaserelease/internal/stm"
	"leaserelease/internal/telemetry"
)

func main() {
	// -protocol -threads -strict -serve -parallel -cpuprofile -memprofile
	// are shared with cmd/leasebench.
	host := bench.AddHostFlags(flag.CommandLine, "8")
	menu := bench.StructureNames() // the default is its first entry
	var (
		dsName     = flag.String("ds", menu[0], "data structure: "+strings.Join(menu, "|"))
		lease      = flag.Bool("lease", false, "enable the paper's lease placement")
		leaseTime  = flag.Uint64("leasetime", 20000, "lease duration in cycles")
		maxLease   = flag.Uint64("maxleasetime", 20000, "MAX_LEASE_TIME in cycles")
		cycles     = flag.Uint64("cycles", 1_000_000, "cycles to simulate")
		warm       = flag.Uint64("warm", 100_000, "warmup cycles excluded from the report (leasebench's -warm is a different flag: an override of its sweep scale)")
		priority   = flag.Bool("priority", false, "regular requests break leases (§5)")
		mesi       = flag.Bool("mesi", false, "MESI exclusive-clean read fills (§8)")
		trace      = flag.Int("trace", 0, "print the first N lease-mechanism events")
		predictor  = flag.Bool("predictor", false, "enable the §5 speculative lease predictor")
		multi      = flag.String("multilease", "hw", "tl2 multilease flavor: hw|sw|single|off")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		jsonOut    = flag.Bool("json", false, "emit each run report as JSON on stdout")
		hotlines   = flag.Int("hotlines", 10, "rank the top-N contended cache lines (0 disables)")
		timeline   = flag.String("timeline", "", "write a Chrome trace-event timeline to this file")
		samples    = flag.Int("sample", 0, "sample N windowed Stats deltas as a time series")
		invariants = flag.Bool("invariants", false, "attach the runtime invariant checker (violations fail the run)")
		faultsOn   = flag.Bool("faults", false, "enable deterministic protocol-legal fault injection")
		preempt    = flag.Int("preempt", 0, "core-preemption probability in permille per memory access (0 disables)")
		preemptMin = flag.Uint64("preemptmin", 500, "minimum preemption duration in cycles")
		preemptMax = flag.Uint64("preemptmax", 40000, "maximum preemption duration in cycles")
		preemptTgt = flag.Bool("preempttargeted", false, "preempt only lease/write holders (adversarial stalled-holder schedule)")
		controller = flag.Bool("controller", false, "enable the adaptive lease-duration controller")
		spans      = flag.Bool("spans", false, "trace coherence-transaction spans and report the cycle accounting")
		ledger     = flag.Bool("ledger", false, "account per-line lease efficiency (granted/used/wasted cycles, ops absorbed, deferral inflicted)")
		compactB   = flag.Bool("compactbuckets", false, "with -json, emit histogram buckets as compact [lo,count] pairs")
	)
	flag.Parse()

	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "leasesim: "+format+"\n", args...)
		os.Exit(2)
	}
	structure, ok := bench.FindStructure(*dsName)
	if !ok {
		// Fail fast with the full menu: a typo should not cost a trip to -help.
		usage("unknown -ds %q (valid: %s)", *dsName, strings.Join(menu, ", "))
	}
	if *preempt < 0 || *preempt > 1000 {
		usage("-preempt %d out of range (want 0..1000 permille)", *preempt)
	}
	if structure.MultiLease && parseMulti(*multi) < 0 {
		usage("bad -multilease %q", *multi)
	}
	if err := host.Start("leasesim", os.Stderr); err != nil {
		usage("%v", err)
	}
	exit := func(code int) {
		host.Close()
		os.Exit(code)
	}
	threadList := host.Threads
	if len(threadList) == 0 {
		host.Close()
		usage("-threads wants at least one thread count")
	}

	// Submit every cell first, then emit buffered results in sweep order:
	// output is byte-identical to a serial run for any -parallel value.
	type cellResult struct {
		out, errOut []byte
		ok          bool
	}
	futures := make([]*bench.Future[cellResult], len(threadList))
	for i, n := range threadList {
		tl := *timeline
		if tl != "" && len(threadList) > 1 {
			tl = fmt.Sprintf("%s.t%d", tl, n)
		}
		c := cell{
			ds: *dsName, protocol: host.Protocol, threads: n, lease: *lease, leaseTime: *leaseTime,
			maxLease: *maxLease, cycles: *cycles, warm: *warm,
			priority: *priority, mesi: *mesi, trace: *trace,
			predictor: *predictor, multi: *multi, seed: *seed,
			jsonOut: *jsonOut, hotlines: *hotlines, timeline: tl,
			samples: *samples, invariants: *invariants, faults: *faultsOn,
			preempt: *preempt, preemptMin: *preemptMin, preemptMax: *preemptMax,
			preemptTargeted: *preemptTgt, controller: *controller,
			spans: *spans, ledger: *ledger, compactBuckets: *compactB,
			progress: host.Progress.Cell(fmt.Sprintf("%s/t%d", *dsName, n)),
		}
		futures[i] = bench.Go(host.Pool, func() cellResult {
			var out, errOut bytes.Buffer
			ok := runCell(c, &out, &errOut)
			return cellResult{out: out.Bytes(), errOut: errOut.Bytes(), ok: ok}
		})
	}

	anyFailed := false
	for _, fu := range futures {
		r := fu.Get()
		os.Stdout.Write(r.out)
		os.Stderr.Write(r.errOut)
		if !r.ok {
			anyFailed = true
			if host.Strict {
				exit(1)
			}
		}
	}
	if anyFailed {
		exit(1)
	}
	exit(0)
}

// cell is one sweep configuration (one thread count).
type cell struct {
	ds                  string
	protocol            string
	threads             int
	lease               bool
	leaseTime, maxLease uint64
	cycles, warm        uint64
	priority, mesi      bool
	trace               int
	predictor           bool
	multi               string
	seed                uint64
	jsonOut             bool
	hotlines            int
	timeline            string
	samples             int
	invariants, faults  bool
	preempt             int
	preemptMin          uint64
	preemptMax          uint64
	preemptTargeted     bool
	controller          bool
	spans               bool
	ledger              bool
	compactBuckets      bool
	progress            *bench.CellProgress
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

// runCell runs one configuration and reports it on out/errOut (buffered
// per cell so sweep cells can run concurrently); false means the run
// failed (the failure has been reported on errOut).
func runCell(c cell, out, errOut io.Writer) bool {
	cfg := machine.DefaultConfig(c.threads)
	cfg.Protocol = c.protocol
	cfg.Lease.MaxLeaseTime = c.maxLease
	cfg.RegularBreaksLease = c.priority
	cfg.MESI = c.mesi
	cfg.Predictor.Enable = c.predictor
	cfg.Seed = c.seed
	if c.faults {
		cfg.Faults = faults.DefaultConfig()
		cfg.Faults.Seed = c.seed
	}
	if c.preempt > 0 {
		cfg.Faults.Enabled = true
		cfg.Faults.Seed = c.seed
		cfg.Faults.PreemptPermille = c.preempt
		cfg.Faults.PreemptMin = c.preemptMin
		cfg.Faults.PreemptMax = c.preemptMax
		cfg.Faults.PreemptTargeted = c.preemptTargeted
	}
	cfg.Controller.Enable = c.controller

	lt := uint64(0)
	if c.lease {
		lt = c.leaseTime
	}

	structure, ok := bench.FindStructure(c.ds)
	if !ok {
		fmt.Fprintf(errOut, "leasesim: unknown -ds %q\n", c.ds)
		return false
	}
	var aborts uint64
	build := structure.Build(bench.StructureOpts{Lease: lt, KeyRange: 1024, Prefill: 512,
		TL2Mode: parseMulti(c.multi), Aborts: &aborts})

	rec := telemetry.NewRecorder()
	if c.timeline != "" {
		rec.EnableTimeline(float64(cfg.ClockHz) / 1e6) // cycles per µs
	}
	if c.spans || c.timeline != "" {
		rec.EnableSpans() // with -timeline, spans become nested txn slices
	}
	if c.ledger {
		rec.EnableLedger()
	}
	c.progress.Start()
	defer c.progress.Done()
	var hooks []func(*machine.Machine)
	// Capture the machine so the report can carry its engine counters.
	var mach *machine.Machine
	hooks = append(hooks, func(m *machine.Machine) { mach = m })
	if c.trace > 0 {
		left := c.trace
		hooks = append(hooks, func(m *machine.Machine) {
			m.SetTracer(func(e machine.TraceEvent) {
				if left > 0 {
					fmt.Fprintln(out, e)
					left--
				}
			})
		})
	}
	r := bench.ThroughputOpts(cfg, c.threads, c.warm, c.cycles, build,
		bench.Options{Recorder: rec, Samples: c.samples, Hooks: hooks,
			Invariants: c.invariants, Progress: c.progress})

	var engineStats *sim.EngineStats
	if mach != nil {
		st := mach.EngineStats()
		engineStats = &st
	}

	if r.Err != nil {
		fmt.Fprintf(errOut, "leasesim: ds=%s threads=%d seed=%d FAILED (%s): %s\n",
			c.ds, c.threads, c.seed, r.Err.Reason, r.Err.Detail)
		if r.Err.Dump != nil {
			fmt.Fprint(errOut, r.Err.Dump)
		}
		if c.jsonOut {
			rep := bench.BuildReport(c.ds, c.threads, c.lease, cfg, c.warm, c.cycles, r, nil, 0)
			rep.EngineStats = engineStats
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			enc.Encode(rep)
		}
		return false
	}

	if c.timeline != "" {
		f, err := os.Create(c.timeline)
		if err != nil {
			fmt.Fprintf(errOut, "leasesim: %v\n", err)
			return false
		}
		if err := rec.Timeline.Write(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(errOut, "leasesim: writing timeline: %v\n", err)
			return false
		}
	}

	if c.jsonOut {
		rep := bench.BuildReport(c.ds, c.threads, c.lease, cfg, c.warm, c.cycles, r, rec, c.hotlines)
		rep.Aborts = aborts
		rep.TimelineFile = c.timeline
		rep.EngineStats = engineStats
		if c.compactBuckets {
			bench.CompactReportBuckets(&rep)
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(errOut, "leasesim: %v\n", err)
			return false
		}
		return true
	}

	proto := ""
	if c.protocol != "" && c.protocol != "msi" {
		proto = " protocol=" + c.protocol
	}
	fmt.Fprintf(out, "ds=%s threads=%d lease=%v%s window=%d cycles\n", c.ds, c.threads, c.lease, proto, r.Cycles)
	fmt.Fprintf(out, "ops            %d\n", r.Ops)
	fmt.Fprintf(out, "throughput     %.3f Mops/s\n", r.MopsPerSec)
	fmt.Fprintf(out, "energy         %.3f nJ/op\n", r.NJPerOp)
	fmt.Fprintf(out, "L1 misses/op   %.3f\n", r.MissesPerOp)
	fmt.Fprintf(out, "messages/op    %.3f\n", r.MsgsPerOp)
	fmt.Fprintf(out, "CAS fails/op   %.3f\n", r.CASFailsPerOp)
	fmt.Fprintf(out, "fairness       %.3f\n", r.Fairness)
	if aborts > 0 {
		fmt.Fprintf(out, "tl2 aborts     %d (warm+window)\n", aborts)
	}

	fmt.Fprintln(out, "\nlatency distributions (cycles):")
	printDist := func(name string, s *telemetry.Summary) {
		if s == nil || s.Count == 0 {
			return
		}
		fmt.Fprintf(out, "%-14s %s\n", name, s)
	}
	printDist("op latency", r.OpLatency)
	printDist("lease hold", r.LeaseHold)
	printDist("probe defer", r.ProbeDefer)
	printDist("dir queue", r.DirQueue)

	if t := r.Txns; t != nil && t.Count > 0 {
		fmt.Fprintf(out, "\ntransaction cycle accounting (%d txns, %d deferred):\n",
			t.Count, t.Deferred)
		printPhases := func(total uint64, ph telemetry.TxnPhases) {
			for i, v := range ph.Vec() {
				pct := 0.0
				if total > 0 {
					pct = 100 * float64(v) / float64(total)
				}
				fmt.Fprintf(out, "  %-14s %14d cycles %6.1f%%\n",
					telemetry.PhaseName(telemetry.Phase(i), c.protocol), v, pct)
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

	if c.hotlines > 0 && rec.Lines.Len() > 0 {
		fmt.Fprintf(out, "\nhot lines (top %d of %d):\n", c.hotlines, rec.Lines.Len())
		fmt.Fprintf(out, "%-12s %10s %10s %8s %10s %10s %8s %8s\n",
			"line", "score", "msgs", "invals", "deferred", "defcycles", "leases", "maxdirq")
		for _, h := range bench.HotLineRows(rec, c.hotlines) {
			fmt.Fprintf(out, "%-12s %10d %10d %8d %10d %10d %8d %8d\n",
				h.Line, h.Score, h.Msgs, h.Invals, h.Deferred, h.DeferredCycles, h.Leases, h.MaxQueue)
		}
	}

	if led := r.LeaseLedger; led != nil {
		fmt.Fprintf(out, "\nlease-efficiency ledger (%d leases closed, %d expired, %d open at end):\n",
			led.Leases, led.Expired, led.OpenAtEnd)
		fmt.Fprintf(out, "granted %d cycles, used %d (efficiency %.3f), unused %d, wasted %d\n",
			led.GrantedCycles, led.UsedCycles, led.Efficiency,
			led.UnusedCycles, led.UnusedCycles+led.ExpiredIdleCycles)
		fmt.Fprintf(out, "ops absorbed %d (%.1f per lease), deferral inflicted %d cycles over %d txns\n",
			led.OpsUnder, led.Amortization, led.DeferInflictedCycles, led.DeferredTxns)
		printLedgerRows := func(title string, rows []bench.LedgerRow) {
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
		printLedgerRows("top wasted cycles", bench.LedgerRows(led.TopWasted, rec))
		printLedgerRows("top deferral inflicted", bench.LedgerRows(led.TopDeferInflicted, rec))
	}

	if len(r.Series) > 0 {
		fmt.Fprintln(out, "\ntime series (per-window deltas):")
		fmt.Fprintf(out, "%12s %10s %10s %10s %10s\n", "end cycle", "ops", "msgs", "l1miss", "deferred")
		for _, s := range r.Series {
			fmt.Fprintf(out, "%12d %10d %10d %10d %10d\n",
				s.EndCycle, s.Ops, s.Stats.TotalMsgs(), s.Stats.L1Misses, s.Stats.DeferredProbes)
		}
	}

	if c.timeline != "" {
		fmt.Fprintf(out, "\ntimeline written to %s (open in chrome://tracing or ui.perfetto.dev)\n", c.timeline)
	}

	fmt.Fprintln(out, "\nwindow counters:")
	fmt.Fprintln(out, r.Window)
	return true
}
