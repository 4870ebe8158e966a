package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	lr "leaserelease"
	"leaserelease/internal/telemetry"
)

const (
	// minReps is the floor on repetitions however short -seconds is, and the
	// number a traced run makes: it exists for the per-layer numbers, and the
	// probes take as long again.
	minReps = 3
	// maxReps bounds a run whose repetitions are very short (the smoke test's).
	maxReps = 15
	// tracedRep is the repetition that is profiled in a traced run. It is
	// never used for host medians.
	tracedRep = 1
	// Set-up is short next to the measure phase (0.3 s on counter64), so a
	// few repetitions give a noisy median of it. Set-up alone is repeated
	// until there are setupSamples of it or the extra ones have taken
	// setupBudget.
	setupSamples = 9
	setupBudget  = 2 * time.Second
)

// options selects how one workload is run.
type options struct {
	seed    uint64
	seconds float64 // repeat until the repetitions have taken this long
	scale   float64 // multiplies every window, warm-up and probe batch; 1 but in the smoke test, no flag sets it
	trace   bool    // profile one repetition, run the probes, report per-layer metrics
	probes  bool    // with trace: run the layer probes in this process (a suite's child does not)
	outDir  string
	log     io.Writer // human-readable report
}

// report is the full result of one workload run; it is what a child
// process hands back to the suite.
type report struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Reps      int      `json:"reps"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	SimDigest string   `json:"sim_digest"`
	EndToEnd  []metric `json:"end_to_end"`
	PerLayer  []metric `json:"per_layer"`
	Notes     []string `json:"notes,omitempty"`
}

func (r *report) failedShare() float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

// contractLine is the last line of standard output in single-workload mode.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) contract() contractLine {
	ms := r.EndToEnd
	if r.Traced {
		ms = r.PerLayer
	}
	c := contractLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]contractValue, len(ms))}
	for _, m := range ms {
		c.Metrics[m.Name] = contractValue{m.Value, m.Unit}
	}
	return c
}

// runPair runs the workload's base and lease cells under one root span and
// books their checks in rep. With profileDir each cell's measure phase is
// CPU-profiled into a file there; with setupOnly the cells stop after set-up.
func runPair(w *workload, o options, clock *refClock, log *spanLog, rep *report, profileDir string, setupOnly bool) (cells [2]cellResult, profiles []string, err error) {
	name := "rep"
	if setupOnly {
		name = "rep.setup_only"
	}
	root := log.start(name, -1)
	defer log.end(root)
	for i, cell := range w.cells {
		var prof io.Writer
		var f *os.File
		if profileDir != "" {
			path := filepath.Join(profileDir, fmt.Sprintf("cpu-%s-%s.pprof", w.name, cell.name))
			if f, err = os.Create(path); err != nil {
				return cells, nil, err
			}
			prof = f
			profiles = append(profiles, path)
		}
		cells[i] = runCell(w, cell, o.seed, o.scale, clock, log, root, prof, setupOnly)
		if f != nil {
			if err = f.Close(); err != nil {
				return cells, nil, err
			}
		}
		if setupOnly {
			rep.Attempted++
		} else {
			rep.Attempted += checksPerCell
		}
		rep.Failures = append(rep.Failures, cells[i].failures...)
	}
	return cells, profiles, nil
}

// runWorkload runs repetitions of the workload's base and lease cells and
// folds them into a report.
func runWorkload(w *workload, o options) (*report, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	rep := &report{Workload: w.name, Seed: o.seed, Traced: o.trace}
	log := &spanLog{t0: time.Now(), workload: w.name}
	clock := newRefClock(max(int(refSteps*o.scale), 1000))
	var reps [][2]cellResult
	var profiles []string
	var setups []float64
	seconds := o.seconds
	if o.trace {
		seconds = 0 // see minReps
	}
	for r := 0; r < maxReps && (r < minReps || time.Since(log.t0).Seconds() < seconds); r++ {
		log.rep = r
		profileDir := ""
		if o.trace && r == tracedRep {
			profileDir = o.outDir
		}
		cells, files, err := runPair(w, o, clock, log, rep, profileDir, false)
		if err != nil {
			return nil, err
		}
		profiles = append(profiles, files...)
		for i, c := range cells {
			if r > 0 && c.digest != reps[0][i].digest {
				rep.Failures = append(rep.Failures, fmt.Sprintf("%s/%s: rep %d digest %s != rep 1 digest %s",
					w.name, w.cells[i].name, r+1, c.digest, reps[0][i].digest))
			}
		}
		reps = append(reps, cells)
		setups = append(setups, setupSeconds(cells))
	}
	for extra := 0.0; len(setups) < setupSamples && extra < setupBudget.Seconds(); {
		log.rep = len(setups)
		cells, _, err := runPair(w, o, clock, log, rep, "", true)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setupSeconds(cells))
		extra += setups[len(setups)-1]
	}
	rep.Reps = len(reps)
	rep.Failed = len(rep.Failures)
	rep.SimDigest = digestOf(reps[0][0].digest, reps[0][1].digest)

	host := hostSamples(reps, o.trace)
	rep.EndToEnd = endToEndMetrics(reps[0], host, setups)
	rep.PerLayer = counterMetrics(reps[0], host)
	if o.trace {
		// Without probes the suite that started this process has measured
		// them itself and fills them in.
		var probes []metric
		if o.probes {
			probes = runProbes(time.Duration(float64(probeBatch) * o.scale))
		}
		traced, notes := tracedMetrics(log, reps, profiles)
		rep.Notes = append(rep.Notes, notes...)
		rep.PerLayer = append(append(probes, rep.PerLayer...), traced...)
		if err := writeJSON(filepath.Join(o.outDir, "spans-"+w.name+".json"), log.spans); err != nil {
			return nil, err
		}
	}
	printReport(o.log, w, rep, reps[0])
	return rep, nil
}

// hostSample holds one repetition's host-side figures, both cells summed.
// Times are in reference seconds (refclock.go) but for wallS.
type hostSample struct {
	measureS                   float64
	cellMeasureS               [2]float64
	wallS                      float64 // the measure phases on the wall clock
	mallocs, allocBytes        float64
	gcCycles, gcPauseMS, cpuS  float64
	windows, accesses, msgs, n float64 // simulated denominators: cycles, L1 accesses, messages, ops
}

// hostSamples extracts the host figures of every repetition that counts
// towards medians: all of them, except the profiled one of a traced run.
func hostSamples(reps [][2]cellResult, traced bool) []hostSample {
	var out []hostSample
	for r, cells := range reps {
		if traced && r == tracedRep {
			continue
		}
		var h hostSample
		for i, c := range cells {
			s := c.ref["measure.run"]
			h.cellMeasureS[i] = s
			h.measureS += s
			h.wallS += c.dur["measure.run"].Seconds()
			h.mallocs += float64(c.mallocs)
			h.allocBytes += float64(c.allocBytes)
			h.gcCycles += float64(c.gcCycles)
			h.gcPauseMS += float64(c.gcPauseNS) / 1e6
			h.cpuS += c.cpu.Seconds()
			h.windows += float64(c.window)
			h.accesses += float64(c.stats.L1Hits + c.stats.L1Misses)
			h.msgs += float64(c.stats.TotalMsgs())
			h.n += float64(c.ops)
		}
		out = append(out, h)
	}
	return out
}

// setupSeconds is the set-up time of one repetition, both cells, in
// reference seconds.
func setupSeconds(cells [2]cellResult) float64 {
	var s float64
	for _, c := range cells {
		s += c.ref["setup.machine_new"] + c.ref["setup.build"] + c.ref["setup.warm"]
	}
	return s
}

func overSamples(d metricDef, hs []hostSample, f func(hostSample) float64) metric {
	xs := make([]float64, len(hs))
	for i, h := range hs {
		xs[i] = f(h)
	}
	return sampled(d, xs)
}

func endToEndMetrics(cells [2]cellResult, hs []hostSample, setups []float64) []metric {
	base, lease := &cells[0], &cells[1]
	def := func(name string) metricDef { return findDef(endToEnd, name) }
	return []metric{
		overSamples(def("sim_cycles_per_host_s"), hs, func(h hostSample) float64 { return ratio(h.windows, h.measureS) }),
		overSamples(def("host_allocs_per_kcycle"), hs, func(h hostSample) float64 { return ratio(h.mallocs, h.windows/1000) }),
		single(def("host_peak_rss_mb"), peakRSSMiB()),
		sampled(def("setup_s"), setups),
		single(def("sim_lease_speedup_x"), ratio(lease.mops(), base.mops())),
		single(def("sim_mops_per_s"), lease.mops()),
		single(def("sim_msgs_per_op"), ratio(float64(lease.stats.TotalMsgs()), float64(lease.ops))),
		single(def("sim_nj_per_op"), ratio(lease.energyNJ, float64(lease.ops))),
	}
}

// counterMetrics are the per-workload counters and ratios: host ones as
// medians over repetitions, simulated ones over both cells of the pair.
func counterMetrics(cells [2]cellResult, hs []hostSample) []metric {
	var s lr.Stats
	var ops uint64
	var windows float64
	fair := 1.0
	var tele teleSnapshot
	for _, c := range cells {
		st := c.stats
		s.L1Hits += st.L1Hits
		s.L1Misses += st.L1Misses
		for k := range s.Msgs {
			s.Msgs[k] += st.Msgs[k]
		}
		s.L2Accesses += st.L2Accesses
		s.DRAMAccesses += st.DRAMAccesses
		s.Leases += st.Leases
		s.VoluntaryReleases += st.VoluntaryReleases
		s.InvoluntaryReleases += st.InvoluntaryReleases
		s.DeferredProbes += st.DeferredProbes
		s.CASSuccesses += st.CASSuccesses
		s.CASFailures += st.CASFailures
		s.MaxDirQueue = max(s.MaxDirQueue, st.MaxDirQueue)
		ops += c.ops
		windows += float64(c.window)
		fair = min(fair, c.fairness)
		if t := c.tele; t != nil {
			tele.events += t.events
			tele.txns.SpanCycles += t.txns.SpanCycles
			tele.txns.Phase[telemetry.PhaseQueue] += t.txns.Phase[telemetry.PhaseQueue]
			tele.txns.Phase[telemetry.PhaseDefer] += t.txns.Phase[telemetry.PhaseDefer]
			tele.ledger.GrantedCycles += t.ledger.GrantedCycles
			tele.ledger.UsedCycles += t.ledger.UsedCycles
			tele.opLat.Add(&t.opLat)
		}
	}
	accesses := float64(s.L1Hits + s.L1Misses)
	vals := map[string]float64{
		"cache.accesses":                   accesses,
		"cache.hit_ratio":                  ratio(float64(s.L1Hits), accesses),
		"coherence.msgs_per_kcycle":        ratio(float64(s.TotalMsgs()), windows/1000),
		"coherence.l2_per_kcycle":          ratio(float64(s.L2Accesses), windows/1000),
		"coherence.dram_accesses":          float64(s.DRAMAccesses),
		"coherence.max_dir_queue":          float64(s.MaxDirQueue),
		"core.leases":                      float64(s.Leases),
		"core.involuntary_release_ratio":   ratio(float64(s.InvoluntaryReleases), float64(s.InvoluntaryReleases+s.VoluntaryReleases)),
		"core.deferred_probes":             float64(s.DeferredProbes),
		"machine.cas_fail_ratio":           ratio(float64(s.CASFailures), float64(s.CASFailures+s.CASSuccesses)),
		"ds.ops":                           float64(ops),
		"ds.fairness":                      fair,
		"telemetry.events_delivered":       float64(tele.events),
		"telemetry.span.dir_queue_share":   ratio(float64(tele.txns.Phase[telemetry.PhaseQueue]), float64(tele.txns.SpanCycles)),
		"telemetry.span.probe_defer_share": ratio(float64(tele.txns.Phase[telemetry.PhaseDefer]), float64(tele.txns.SpanCycles)),
		"telemetry.ledger.used_ratio":      ratio(float64(tele.ledger.UsedCycles), float64(tele.ledger.GrantedCycles)),
		"telemetry.op_p50_cycles":          float64(tele.opLat.Quantile(0.50)),
		"telemetry.op_p99_cycles":          float64(tele.opLat.Quantile(0.99)),
	}
	hostVals := map[string]func(hostSample) float64{
		"base.sim_cycles_per_host_s":  func(h hostSample) float64 { return ratio(float64(cells[0].window), h.cellMeasureS[0]) },
		"lease.sim_cycles_per_host_s": func(h hostSample) float64 { return ratio(float64(cells[1].window), h.cellMeasureS[1]) },
		"machine.host_ns_per_access":  func(h hostSample) float64 { return ratio(h.measureS*1e9, h.accesses) },
		"machine.host_ns_per_msg":     func(h hostSample) float64 { return ratio(h.measureS*1e9, h.msgs) },
		"machine.host_ns_per_op":      func(h hostSample) float64 { return ratio(h.measureS*1e9, h.n) },
		"host.wall_cycles_per_s":      func(h hostSample) float64 { return ratio(h.windows, h.wallS) },
		"host.ref_speed":              func(h hostSample) float64 { return ratio(h.measureS, h.wallS) },
		"host.cpu_per_wall":           func(h hostSample) float64 { return ratio(h.cpuS, h.wallS) },
		"host.gc_cycles":              func(h hostSample) float64 { return h.gcCycles },
		"host.gc_pause_ms":            func(h hostSample) float64 { return h.gcPauseMS },
		"host.alloc_bytes_per_kcycle": func(h hostSample) float64 { return ratio(h.allocBytes, h.windows/1000) },
	}
	out := make([]metric, 0, len(counterDefs))
	for _, d := range counterDefs {
		if f, ok := hostVals[d.name]; ok {
			out = append(out, overSamples(d, hs, f))
		} else {
			out = append(out, single(d, vals[d.name]))
		}
	}
	return out
}

// tracedMetrics reports the profiled repetition: span self times, the CPU
// profile's package shares (left out, with a note, if the profile could not
// be read back), and what profiling cost.
func tracedMetrics(log *spanLog, reps [][2]cellResult, profiles []string) ([]metric, []string) {
	self := log.selfSeconds(tracedRep)
	shares, note := profileShares(profiles)
	var notes []string
	if note != "" {
		notes = append(notes, note)
	}
	var tracedS float64
	var untraced []float64
	for r, cells := range reps {
		s := (cells[0].dur["measure.run"] + cells[1].dur["measure.run"]).Seconds()
		if r == tracedRep {
			tracedS = s
		} else {
			untraced = append(untraced, s)
		}
	}
	base := sampled(metricDef{}, untraced).Value
	out := make([]metric, 0, len(tracedDefs))
	for _, d := range tracedDefs {
		var v float64
		switch {
		case d.name == "trace_overhead_share":
			v = ratio(tracedS, base) - 1
		case strings.HasPrefix(d.name, "share."):
			if shares == nil {
				continue // the note says why
			}
			v = shares[strings.TrimPrefix(d.name, "share.")]
		default: // span.<name>_s
			v = self[strings.TrimSuffix(strings.TrimPrefix(d.name, "span."), "_s")]
		}
		out = append(out, single(d, v))
	}
	return out, notes
}

func findDef(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.name == name {
			return d
		}
	}
	panic("leaseperf: no metric " + name)
}

func findMetric(ms []metric, name string) *metric {
	for i := range ms {
		if ms[i].Name == name {
			return &ms[i]
		}
	}
	return nil
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
