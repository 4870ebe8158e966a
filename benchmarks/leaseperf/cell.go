package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"time"

	lr "leaserelease"
	"leaserelease/internal/telemetry"
)

// span is one benchmark-owned trace span. Spans are kept in memory and
// written out when the run ends; they are also what times every phase, so
// traced and untraced repetitions are timed the same way.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a repetition's root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

type spanLog struct {
	t0       time.Time
	workload string
	rep      int
	spans    []span
}

func (l *spanLog) start(name string, parent int) int {
	l.spans = append(l.spans, span{ID: len(l.spans), Parent: parent, Name: name,
		Workload: l.workload, Rep: l.rep, StartNS: int64(time.Since(l.t0))})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) time.Duration {
	s := &l.spans[id]
	s.EndNS = int64(time.Since(l.t0))
	return time.Duration(s.EndNS - s.StartNS)
}

// selfSeconds sums, per span name, each span's duration minus the part its
// children cover, over the spans of repetition rep.
func (l *spanLog) selfSeconds(rep int) map[string]float64 {
	self := make(map[int]int64)
	for _, s := range l.spans {
		if s.Rep != rep {
			continue
		}
		self[s.ID] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	out := make(map[string]float64)
	for id, ns := range self {
		out[l.spans[id].Name] += float64(ns) / 1e9
	}
	return out
}

// teleSnapshot is what the Recorder saw in one cell's window.
type teleSnapshot struct {
	events uint64
	txns   telemetry.TxnStats
	ledger telemetry.LedgerTotals
	opLat  telemetry.Hist
}

// cellResult is one cell of one repetition.
type cellResult struct {
	window   uint64
	ops      uint64
	stats    lr.Stats // delta over the window
	fairness float64
	energyNJ float64
	clockHz  uint64
	digest   string
	tele     *teleSnapshot

	dur        map[string]time.Duration // wall time by span name, slices summed
	ref        map[string]float64       // the same in reference seconds, see refclock.go
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNS  uint64
	cpu        time.Duration

	failures []string // one entry per failed check
}

// checksPerCell: Run returned no error, VerifyCoherence is nil, the
// structure invariant holds, the Stats digest equals repetition 1's. A
// set-up-only cell makes the first check alone.
const checksPerCell = 4

func (r *cellResult) mops() float64 {
	return ratio(float64(r.ops)*float64(r.clockHz)/1e6, float64(r.window))
}

// measureSlices is how many Run calls the measure phase is cut into, the
// reference kernel after each: a slice is 50 to 100 ms of host time, shorter
// than the host's level shifts. The warm-up is cut into slices of the same
// simulated length.
const measureSlices = 32

// runCell builds, warms, measures and checks one cell. profile, when not
// nil, receives a CPU profile of the measure phase. With setupOnly the cell
// is torn down after the warm-up: a further sample of set-up time and
// nothing else.
func runCell(w *workload, cell cellSpec, seed uint64, scale float64, clock *refClock, log *spanLog, parent int, profile io.Writer, setupOnly bool) (res cellResult) {
	warm := scaled(w.warm, scale)
	res.window = scaled(cell.window, scale)
	slice := max(res.window/measureSlices, 1)
	res.dur = make(map[string]time.Duration)
	res.ref = make(map[string]float64)
	// The previous cell's machine is garbage by now; collect it here so
	// that no timed phase of this cell pays for it.
	runtime.GC()
	cellSpan := log.start("cell."+cell.name, parent)
	defer log.end(cellSpan)

	var m *lr.Machine
	// phase times fn under a span, then runs the reference kernel under
	// another, books fn's time on both clocks and returns its reference
	// seconds.
	clock.tick()
	phase := func(name string, fn func()) float64 {
		before := clock.speed
		id := log.start(name, cellSpan)
		var wall time.Duration
		func() {
			defer func() { wall = log.end(id) }()
			fn()
		}()
		tick := log.start("clock.tick", cellSpan)
		after := clock.tick()
		res.dur["clock.tick"] += log.end(tick)
		ref := refSeconds(wall, before, after)
		res.dur[name] += wall
		res.ref[name] += ref
		return ref
	}
	// A protocol violation surfaces as a panic re-raised on this goroutine
	// by Run; it fails every check of the cell instead of killing the run.
	defer func() {
		if p := recover(); p != nil {
			res.failures = []string{fmt.Sprintf("%s/%s: panic: %v", w.name, cell.name, p)}
			for len(res.failures) < checksPerCell && !setupOnly {
				res.failures = append(res.failures, "not reached")
			}
			if m != nil {
				m.Stop()
			}
		}
	}()

	phase("setup.machine_new", func() {
		cfg := lr.DefaultConfig(w.threads)
		cfg.Seed = seed
		m = lr.New(cfg)
		res.clockHz = cfg.ClockHz
	})

	var rec *telemetry.Recorder
	var events uint64
	counts := make([]uint64, w.threads)
	stop := false
	var prog program
	phase("setup.build", func() {
		if w.recorder {
			rec = telemetry.NewRecorder()
			rec.EnableSpans().WindowStart = warm
			rec.EnableLedger().WindowStart = warm
			bus := m.Telemetry()
			rec.Attach(bus)
			bus.SubscribeAll(func(telemetry.Event) { events++ })
		}
		prog = cell.build(m)
		op := prog.op
		if rec != nil {
			op = observed(prog.op, rec, warm)
		}
		for i := 0; i < w.threads; i++ {
			i := i
			m.Spawn(0, func(c *lr.Ctx) {
				for !stop {
					op(i, c)
					counts[i]++
					c.Work(c.Rand().Uint64n(w.think))
				}
			})
		}
	})

	var runErr error
	// runTo advances the machine to cycle until, a slice at a time, and
	// returns each slice's reference seconds.
	runTo := func(name string, until uint64) (slices []float64) {
		for at := m.Now(); at < until && runErr == nil; {
			at = min(at+slice, until)
			slices = append(slices, phase(name, func() { runErr = m.Run(at) }))
		}
		return slices
	}
	runTo("setup.warm", warm)
	if setupOnly {
		if runErr != nil {
			res.failures = append(res.failures, fmt.Sprintf("%s/%s: warm-up: %v", w.name, cell.name, runErr))
		}
		m.Stop()
		return res
	}

	s0 := m.Stats()
	counts0 := append([]uint64(nil), counts...)
	events0 := events
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, tick0 := cpuTime(), res.dur["clock.tick"]
	if profile != nil {
		if err := pprof.StartCPUProfile(profile); err != nil {
			fmt.Println("note: CPU profile not started:", err)
			profile = nil
		}
	}
	slices := runTo("measure.run", warm+res.window)
	if profile != nil {
		pprof.StopCPUProfile()
	}
	// The slices simulate equal lengths of a steady state. One that the host
	// held up while the kernel beside it ran free is booked for what the
	// median slice took, not for what it took.
	res.ref["measure.run"] = sampled(metricDef{}, slices).Value * float64(len(slices))
	// The reference kernel is one thread that never waits: its CPU time is
	// its wall time.
	res.cpu = cpuTime() - cpu0 - (res.dur["clock.tick"] - tick0)
	runtime.ReadMemStats(&ms1)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcCycles = ms1.NumGC - ms0.NumGC
	res.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs

	res.stats = m.Stats().Sub(s0)
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for i, n := range counts {
		d := n - counts0[i]
		res.ops += d
		lo, hi = min(lo, d), max(hi, d)
	}
	res.fairness = ratio(float64(lo), float64(hi))
	res.energyNJ = res.stats.EnergyNJ(m.Config().Energy)
	if rec != nil {
		res.tele = &teleSnapshot{
			events: events - events0,
			txns:   rec.Spans.Stats(),
			ledger: rec.Ledger.Totals(),
			opLat:  rec.OpLatency,
		}
	}

	phase("check.verify", func() {
		fail := func(what string, err error) {
			res.failures = append(res.failures, fmt.Sprintf("%s/%s: %s: %v", w.name, cell.name, what, err))
		}
		if runErr != nil {
			fail("run", runErr)
		}
		if err := m.VerifyCoherence(); err != nil {
			fail("coherence", err)
		}
		// Let every thread finish the operation it is in, so the
		// host-side counts and the structure agree exactly.
		stop = true
		if err := m.Drain(); err != nil {
			fail("drain", err)
		} else if err := prog.check(m); err != nil {
			fail("invariant", err)
		}
	})
	phase("teardown.stop", m.Stop)
	phase("report.digest", func() { res.digest = digestOf(res.stats, res.ops, res.fairness) })
	return res
}

// observed wraps op the way the sweep harness does for an instrumented
// run: per-operation latency, span and ledger roll-ups at each operation
// boundary, for operations that start inside the window.
func observed(op func(int, *lr.Ctx), rec *telemetry.Recorder, warm uint64) func(int, *lr.Ctx) {
	return func(tid int, c *lr.Ctx) {
		start := c.Now()
		op(tid, c)
		end := c.Now()
		c.Observe(func() {
			if start >= warm {
				rec.OpLatency.Observe(end - start)
			}
			rec.Spans.OpEnd(tid, start, end, start >= warm)
			rec.Ledger.OpEnd(tid, start >= warm)
		})
	}
}

func scaled(cycles uint64, scale float64) uint64 {
	return max(uint64(float64(cycles)*scale), 1000)
}
