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
//	leasebench -exp all -quick -parallel 4 -perfjson BENCH_host.json
//	leasebench -exp all -serve :9090
//	leasebench -compare old.json new.json [-threshold 5]
//	leasebench history [-dir .leasehistory] [-note s] run.json...
//	leasebench report [-dir .leasehistory] [-o lease-report.html] [run.json...]
//
// -protocol reruns any experiment on a different coherence backend
// (default directory MSI, or Tardis timestamp coherence); the dedicated
// protocol-compare experiment runs both side by side with identical seeds.
//
// -compare diffs two `leasesim -json` report files per configuration
// (ops, throughput, latency percentiles, messages per op); changes that
// regress by more than -threshold percent are marked '!', a one-line
// verdict goes to stderr, and the exit status is 1 when any exist.
// `history` appends per-run summary metrics from `leasesim -json` files
// to an append-only JSONL store keyed by configuration and git revision;
// `report` renders the store plus optional current-run files into a
// single self-contained HTML report (sweep tables, histogram sparklines,
// lease-ledger rankings, cross-run trend lines — no external assets).
// -serve exposes live sweep introspection
// (per-experiment cell progress, pool occupancy, simulated-cycles/s) over
// HTTP while experiments run; see cmd/leasesim for the endpoints.
//
// Sweep cells — one (experiment, thread count, variant) measurement each —
// run on a host worker pool (-parallel, default GOMAXPROCS). Each cell
// owns a private simulated machine and rows are emitted in the original
// serial order, so experiment output is byte-identical for any -parallel
// value; only wall-clock changes.
//
// -perfjson records per-experiment wall-clock times (the tracked host-
// performance trajectory; see EXPERIMENTS.md §Host performance) and, as
// "engine_stats", the event kernel's host-side counters summed over the
// sweep's cells; -perfbase computes speedups against a previously recorded
// file.
// -cpuprofile/-memprofile capture pprof profiles of the harness itself.
//
// An experiment that panics is recovered and reported; the remaining
// experiments still run and the exit status is 1. -strict aborts at the
// first failed experiment instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"leaserelease/internal/bench"
	"leaserelease/internal/coherence"
	"leaserelease/internal/sim"
)

// ExpPerf is one experiment's recorded host wall-clock.
type ExpPerf struct {
	ID          string  `json:"id"`
	WallSeconds float64 `json:"wall_seconds"`
	OK          bool    `json:"ok"`
	// SpeedupVsBase is baseline wall-clock divided by this run's, when
	// -perfbase was given and the baseline has this experiment.
	SpeedupVsBase float64 `json:"speedup_vs_base,omitempty"`
}

// PerfReport is the schema of -perfjson output (BENCH_host.json): the
// host-performance trajectory every PR is measured against.
type PerfReport struct {
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	NumCPU        int    `json:"num_cpu"`
	Parallel      int    `json:"parallel"`
	// EffectiveWorkers is the worker count the pool actually started
	// (resolves -parallel 0 to GOMAXPROCS). A host where
	// effective_workers > num_cpu timeshares, so its "parallel" wall-clock
	// numbers are not scaling evidence.
	EffectiveWorkers int       `json:"effective_workers"`
	Quick            bool      `json:"quick"`
	Threads          []int     `json:"threads"`
	WarmCycles       uint64    `json:"warm_cycles"`
	WindowCycles     uint64    `json:"window_cycles"`
	Experiments      []ExpPerf `json:"experiments"`
	TotalWallSeconds float64   `json:"total_wall_seconds"`
	// EngineStats is the event kernel's host-side counters summed over
	// every cell of the sweep (bench.EngineTotal): events executed and how
	// core wake-ups were paid for. A sum, so the same at any -parallel.
	EngineStats sim.EngineStats `json:"engine_stats"`
	// BaselineFile/TotalSpeedupVsBase are filled when -perfbase was given.
	BaselineFile       string  `json:"baseline_file,omitempty"`
	TotalSpeedupVsBase float64 `json:"total_speedup_vs_base,omitempty"`
}

func main() {
	// Subcommands of the report pipeline dispatch before the global flag
	// set: `leasebench history ...` and `leasebench report ...` have their
	// own flags (see runHistory/runReport).
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "history":
			os.Exit(runHistory(os.Args[2:]))
		case "report":
			os.Exit(runReport(os.Args[2:]))
		}
	}
	var (
		exp      = flag.String("exp", "", "experiment id to run, or 'all'")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		protocol = flag.String("protocol", "msi", "coherence protocol backend: msi|tardis")
		quick    = flag.Bool("quick", false, "small thread sweep and short windows")
		threads  = flag.String("threads", "", "comma-separated thread counts (override)")
		warm     = flag.Uint64("warm", 0, "warmup cycles (override)")
		window   = flag.Uint64("window", 0, "measurement window cycles (override)")
		strict   = flag.Bool("strict", false, "abort at the first failed experiment")

		compare   = flag.Bool("compare", false, "compare two leasesim -json report files: leasebench -compare old.json new.json")
		threshold = flag.Float64("threshold", 5, "with -compare, highlight regressions beyond this percentage (0 disables)")
		serveAddr = flag.String("serve", "", "serve live sweep introspection over HTTP on this address (e.g. :9090)")

		parallel = flag.Int("parallel", 0, "worker pool size for sweep cells (0 = GOMAXPROCS, 1 = serial)")
		perfjson = flag.String("perfjson", "", "write per-experiment wall-clock times as JSON to this file")
		perfbase = flag.String("perfbase", "", "baseline perfjson file to compute speedups against")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Paper)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "leasebench: -compare wants exactly two files: old.json new.json")
			os.Exit(2)
		}
		oldReps, err := bench.ReadReportFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "leasebench: -compare: %v\n", err)
			os.Exit(2)
		}
		newReps, err := bench.ReadReportFile(flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "leasebench: -compare: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("## compare %s -> %s\n", flag.Arg(0), flag.Arg(1))
		regressions, compared := bench.CompareReports(os.Stdout, oldReps, newReps, *threshold)
		// One-line verdict on stderr so CI logs carry the outcome without
		// scraping the stdout table.
		verdict := "OK"
		if regressions > 0 {
			verdict = "REGRESSED"
		}
		fmt.Fprintf(os.Stderr, "leasebench: -compare %s: %d configs compared, %d regressions beyond %.1f%%\n",
			verdict, compared, regressions, *threshold)
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	if !coherence.ValidProtocol(*protocol) {
		fmt.Fprintf(os.Stderr, "leasebench: unknown -protocol %q (valid: %s)\n",
			*protocol, strings.Join(coherence.Protocols(), ", "))
		os.Exit(2)
	}

	p := bench.FullParams()
	if *quick {
		p = bench.QuickParams()
	}
	if *protocol != "" && *protocol != coherence.ProtocolMSI {
		// The default MSI stays the empty tag so default sweeps are
		// byte-identical to builds that predate -protocol.
		p.Protocol = *protocol
	}
	if *threads != "" {
		p.Threads = nil
		for _, s := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 || n > 64 {
				fmt.Fprintf(os.Stderr, "leasebench: bad thread count %q\n", s)
				os.Exit(2)
			}
			p.Threads = append(p.Threads, n)
		}
	}
	if *warm > 0 {
		p.Warm = *warm
	}
	if *window > 0 {
		p.Window = *window
	}

	stopProfiles := startProfiles(*cpuprof, *memprof)
	p.Pool = bench.NewPool(*parallel)
	// Record the count the run actually gets, not the requested one: a
	// -parallel 4 run on a 1-CPU host timeshares — BENCH_host.json must
	// say so.
	effWorkers := p.Pool.Workers()
	if effWorkers > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr,
			"leasebench: warning: %d workers exceeds NumCPU=%d; host threads will timeshare and wall-clock gains flatten\n",
			effWorkers, runtime.NumCPU())
	}
	if *serveAddr != "" {
		p.Progress = bench.NewProgress()
		p.Progress.SetPool(p.Pool)
		addr, err := p.Progress.Serve(*serveAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "leasebench: -serve: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "leasebench: introspection on http://%s (/progress /metrics /debug/vars)\n", addr)
	}
	perf := &PerfReport{
		SchemaVersion:    1,
		GoVersion:        runtime.Version(),
		GOOS:             runtime.GOOS,
		GOARCH:           runtime.GOARCH,
		NumCPU:           runtime.NumCPU(),
		Parallel:         *parallel,
		EffectiveWorkers: effWorkers,
		Quick:            *quick,
		Threads:          p.Threads,
		WarmCycles:       p.Warm,
		WindowCycles:     p.Window,
	}
	// exit tears down the pool and flushes profiles and the perf report
	// before the process ends (os.Exit skips deferred calls).
	exit := func(code int) {
		p.Pool.Close()
		perf.EngineStats = bench.EngineTotal()
		writePerf(*perfjson, *perfbase, perf)
		stopProfiles()
		os.Exit(code)
	}

	// run executes one experiment, converting an escaping panic (which the
	// sim kernel annotates with cycle/proc/event context) into a reported
	// failure so the remaining experiments still run.
	run := func(e bench.Experiment) (ok bool) {
		fmt.Printf("## %s — %s\n", e.ID, e.Paper)
		start := time.Now()
		defer func() {
			if r := recover(); r != nil {
				ok = false
				fmt.Fprintf(os.Stderr, "leasebench: experiment %s FAILED: %v\n", e.ID, r)
			}
			wall := time.Since(start).Seconds()
			perf.Experiments = append(perf.Experiments, ExpPerf{ID: e.ID, WallSeconds: wall, OK: ok})
			perf.TotalWallSeconds += wall
			fmt.Printf("(wall time %.1fs)\n\n", wall)
		}()
		pe := p
		pe.Exp = e.ID // progress cells report as "<exp>/tN"
		e.Run(os.Stdout, pe)
		return true
	}

	if *exp == "all" {
		failed := false
		for _, e := range bench.All() {
			if !run(e) {
				failed = true
				if *strict {
					exit(1)
				}
			}
		}
		if failed {
			exit(1)
		}
		exit(0)
	}
	e, ok := bench.Find(*exp)
	if !ok {
		// Fail fast with the full menu: a typo'd -exp should not cost a
		// trip through -list.
		fmt.Fprintf(os.Stderr, "leasebench: unknown experiment %q; valid experiments:\n", *exp)
		for _, e := range bench.All() {
			fmt.Fprintf(os.Stderr, "  %-20s %s\n", e.ID, e.Paper)
		}
		fmt.Fprintln(os.Stderr, "  all                  run every experiment")
		os.Exit(2)
	}
	if !run(e) {
		exit(1)
	}
	exit(0)
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

// writePerf fills in speedups against the optional baseline file and
// writes the perf report.
func writePerf(path, basePath string, perf *PerfReport) {
	if path == "" {
		return
	}
	if basePath != "" {
		base, err := readPerf(basePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "leasebench: -perfbase: %v\n", err)
		} else {
			perf.BaselineFile = basePath
			baseWall := make(map[string]float64, len(base.Experiments))
			var baseTotal float64
			for _, e := range base.Experiments {
				baseWall[e.ID] = e.WallSeconds
			}
			for i := range perf.Experiments {
				e := &perf.Experiments[i]
				if bw, ok := baseWall[e.ID]; ok && e.WallSeconds > 0 {
					e.SpeedupVsBase = bw / e.WallSeconds
					baseTotal += bw
				}
			}
			if perf.TotalWallSeconds > 0 && baseTotal > 0 {
				perf.TotalSpeedupVsBase = baseTotal / perf.TotalWallSeconds
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "leasebench: -perfjson: %v\n", err)
		return
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(perf); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "leasebench: -perfjson: %v\n", err)
	}
}

func readPerf(path string) (*PerfReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p PerfReport
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &p, nil
}

// startProfiles starts CPU profiling and arranges a heap profile at exit
// (shared flag behavior with cmd/leasesim). The returned func must run
// before the process exits.
func startProfiles(cpu, mem string) func() {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fmt.Fprintf(os.Stderr, "leasebench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "leasebench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		cpuF = f
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "leasebench: -memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "leasebench: -memprofile: %v\n", err)
			}
			f.Close()
		}
	}
}
