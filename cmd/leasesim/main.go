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
// -protocol, -threads, -strict, -parallel, -cpuprofile and -memprofile
// are the host flags shared with cmd/leasebench; bench.Host documents them.
// Each -threads count is one cell, with stdout/stderr buffered per cell and
// emitted in sweep order. Each -json report carries
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
// readable JSON; -timeline additionally writes a Chrome trace-event file
// loadable in chrome://tracing or https://ui.perfetto.dev showing each
// core's lease intervals — and, with spans, nested transaction slices with
// flow arrows — on the simulated timeline.
package main

import (
	"bytes"
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
	"leaserelease/internal/sim"
	"leaserelease/internal/stm"
	"leaserelease/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// cell is one sweep configuration, all that runCell reads: the per-binary
// flags, which run binds straight to the fields, at one thread count.
type cell struct {
	ds                  string
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
	timeline            string // -timeline, suffixed .t<threads> in a sweep
	samples             int
	invariants, faults  bool
	preempt             int
	preemptMin          uint64
	preemptMax          uint64
	preemptTargeted     bool
	controller          bool
	spans               bool
	ledger              bool

	structure bench.Structure // what -ds names
	protocol  string          // the host's -protocol
	threads   int
}

// run is main: it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("leasesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// -protocol -threads -strict -parallel -cpuprofile -memprofile are
	// shared with cmd/leasebench.
	host := bench.AddHostFlags(fs, "8")
	menu := bench.StructureNames() // the default is its first entry
	var f cell                     // what the flags set; each cell is a copy
	fs.StringVar(&f.ds, "ds", menu[0], "data structure: "+strings.Join(menu, "|"))
	fs.BoolVar(&f.lease, "lease", false, "enable the paper's lease placement")
	fs.Uint64Var(&f.leaseTime, "leasetime", 20000, "lease duration in cycles")
	fs.Uint64Var(&f.maxLease, "maxleasetime", 20000, "MAX_LEASE_TIME in cycles")
	fs.Uint64Var(&f.cycles, "cycles", 1_000_000, "cycles to simulate")
	fs.Uint64Var(&f.warm, "warm", 100_000, "warm-up cycles excluded from the measurement")
	fs.BoolVar(&f.priority, "priority", false, "regular requests break leases (§5)")
	fs.BoolVar(&f.mesi, "mesi", false, "MESI exclusive-clean read fills (§8)")
	fs.IntVar(&f.trace, "trace", 0, "print the first N lease-mechanism events")
	fs.BoolVar(&f.predictor, "predictor", false, "enable the §5 speculative lease predictor")
	fs.StringVar(&f.multi, "multilease", "hw", "tl2 multilease flavor: hw|sw|single|off")
	fs.Uint64Var(&f.seed, "seed", 1, "simulation seed")
	fs.BoolVar(&f.jsonOut, "json", false, "emit each run report as JSON on stdout")
	fs.IntVar(&f.hotlines, "hotlines", 10, "rank the top-N contended cache lines (0 disables)")
	fs.StringVar(&f.timeline, "timeline", "", "write a Chrome trace-event timeline to this file")
	fs.IntVar(&f.samples, "sample", 0, "sample N windowed Stats deltas as a time series")
	fs.BoolVar(&f.invariants, "invariants", false, "attach the runtime invariant checker (violations fail the run)")
	fs.BoolVar(&f.faults, "faults", false, "enable deterministic protocol-legal fault injection")
	fs.IntVar(&f.preempt, "preempt", 0, "core-preemption probability in permille per memory access (0 disables)")
	fs.Uint64Var(&f.preemptMin, "preemptmin", 500, "minimum preemption duration in cycles")
	fs.Uint64Var(&f.preemptMax, "preemptmax", 40000, "maximum preemption duration in cycles")
	fs.BoolVar(&f.preemptTargeted, "preempttargeted", false, "preempt only lease/write holders (adversarial stalled-holder schedule)")
	fs.BoolVar(&f.controller, "controller", false, "enable the adaptive lease-duration controller")
	fs.BoolVar(&f.spans, "spans", false, "trace coherence-transaction spans and report the cycle accounting")
	fs.BoolVar(&f.ledger, "ledger", false, "account per-line lease efficiency (granted/used/wasted cycles, ops absorbed, deferral inflicted)")
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
	var ok bool
	if f.structure, ok = bench.FindStructure(f.ds); !ok {
		// Fail fast with the full menu: a typo should not cost a trip to -help.
		return usage("unknown -ds %q (valid: %s)", f.ds, strings.Join(menu, ", "))
	}
	if f.preempt < 0 || f.preempt > 1000 {
		return usage("-preempt %d out of range (want 0..1000 permille)", f.preempt)
	}
	// The injector reads PreemptMax 0 as "no preemption" and a minimum above
	// the maximum as a fixed duration; neither may stand in for what was asked.
	switch {
	case f.preemptMax == 0:
		return usage("-preemptmax wants at least one cycle")
	case f.preemptMin > f.preemptMax:
		return usage("-preemptmin %d exceeds -preemptmax %d", f.preemptMin, f.preemptMax)
	case f.samples < 0:
		return usage("-sample %d is negative", f.samples)
	case f.hotlines < 0:
		return usage("-hotlines %d is negative", f.hotlines)
	case f.trace < 0:
		return usage("-trace %d is negative", f.trace)
	}
	if f.structure.MultiLease && parseMulti(f.multi) < 0 {
		return usage("bad -multilease %q", f.multi)
	}
	if f.cycles == 0 {
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
	f.protocol = host.Protocol

	// Submit every cell first, then emit buffered results in sweep order:
	// output is byte-identical to a serial run for any -parallel value.
	type cellResult struct {
		out, errOut []byte
		ok          bool
	}
	futures := make([]*bench.Future[cellResult], len(host.Threads))
	for i, n := range host.Threads {
		c := f
		c.threads = n
		if c.timeline != "" && len(host.Threads) > 1 {
			c.timeline = fmt.Sprintf("%s.t%d", c.timeline, n)
		}
		futures[i] = bench.Go(host.Pool, func() cellResult {
			var out, errOut bytes.Buffer
			ok := runCell(c, &out, &errOut)
			return cellResult{out: out.Bytes(), errOut: errOut.Bytes(), ok: ok}
		})
	}

	status := 0
	for _, fu := range futures {
		r := fu.Get()
		stdout.Write(r.out)
		stderr.Write(r.errOut)
		if !r.ok {
			status = 1
			if host.Strict {
				break
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

// runCell runs one configuration and reports it on out/errOut (buffered
// per cell so sweep cells can run concurrently); false means the run
// failed (the failure has been reported on errOut).
func runCell(c cell, out, errOut io.Writer) bool {
	cfg := machine.DefaultConfig(c.threads)
	cfg.Protocol = c.protocol
	cfg.Lease.MaxLeaseTime = c.maxLease
	cfg.RegularBreaksLease = c.priority
	cfg.MESI = c.mesi
	cfg.Predictor = c.predictor
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
	cfg.Controller = c.controller

	lt := uint64(0)
	if c.lease {
		lt = c.leaseTime
	}

	var aborts uint64
	build := c.structure.Build(bench.StructureOpts{Lease: lt, KeyRange: 1024, Prefill: 512,
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
	var hooks []func(*machine.Machine)
	// Capture the machine so the report can carry its engine counters.
	var mach *machine.Machine
	hooks = append(hooks, func(m *machine.Machine) { mach = m })
	if c.trace > 0 {
		left := c.trace
		hooks = append(hooks, func(m *machine.Machine) {
			m.Telemetry().Subscribe(telemetry.CatLease, func(e telemetry.Event) {
				// ProbeServed carries a deferral delay, not a lease transition.
				if left > 0 && e.Kind != telemetry.ProbeServed {
					fmt.Fprintf(out, "[%10d] core %2d %-7s line %#x\n",
						e.Time, e.Core, telemetry.LeaseKindName(e.Kind), uint64(e.Line))
					left--
				}
			})
		})
	}
	r := bench.ThroughputOpts(cfg, c.threads, c.warm, c.cycles, build,
		bench.Options{Recorder: rec, Samples: c.samples, Hooks: hooks,
			Invariants: c.invariants})

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
