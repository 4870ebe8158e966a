// Package bench is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (§7): workload generators, thread
// sweeps, and text-table reporters. See DESIGN.md's experiment index for
// the paper-to-experiment mapping.
package bench

import (
	"errors"
	"fmt"

	"leaserelease/internal/invariant"
	"leaserelease/internal/machine"
	"leaserelease/internal/sim"
	"leaserelease/internal/telemetry"
)

// OpFunc performs one data structure operation on behalf of thread tid.
type OpFunc func(tid int, c *machine.Ctx)

// Workload builds a structure on a fresh machine and returns the operation
// its threads loop on.
type Workload = func(d *machine.Direct) OpFunc

// Result summarizes one measurement window. Its tagged fields are the
// measured half of a Report, in the order `leasebench -cell` prints them.
type Result struct {
	Ops    uint64 `json:"ops"`
	Cycles uint64 `json:"-"` // the window's length

	MopsPerSec    float64 `json:"mops_per_sec"` // million operations per wall-clock second at ClockHz
	NJPerOp       float64 `json:"nj_per_op"`
	MissesPerOp   float64 `json:"l1_misses_per_op"`
	MsgsPerOp     float64 `json:"msgs_per_op"`
	CASFailsPerOp float64 `json:"cas_fails_per_op"`

	// Fairness is minOps/maxOps across threads in the window (1 = perfect;
	// 0 = some thread starved). Lease queueing tends to raise it.
	Fairness float64 `json:"fairness"`

	// Aborts is a TL2 cell's abort count over warm-up and window, and
	// AbortsPerOp the window's aborts per op; tl2Variant fills both.
	Aborts      uint64  `json:"tl2_aborts,omitempty"`
	AbortsPerOp float64 `json:"-"`

	// Snapshots taken and the collect rounds they needed, over warm-up and
	// window alike; filled by the snapshot workload.
	Snapshots, SnapshotRounds uint64 `json:"-"`

	// Distribution digests (p50/p90/p99 alongside the means above), filled
	// with Txns and LeaseLedger when the run had a recorder
	// (Options.Recorder); nil otherwise.
	OpLatency  *telemetry.Summary `json:"op_latency_cycles,omitempty"`   // cycles per operation
	LeaseHold  *telemetry.Summary `json:"lease_hold_cycles,omitempty"`   // lease start -> release/expire/break
	ProbeDefer *telemetry.Summary `json:"probe_defer_cycles,omitempty"`  // probe wait behind a lease
	DirQueue   *telemetry.Summary `json:"dir_queue_occupancy,omitempty"` // directory queue occupancy at arrival

	// Txns is the critical-path cycle accounting of the window's coherence
	// transactions.
	Txns *telemetry.TxnSummary `json:"txn_accounting,omitempty"`

	// LeaseLedger is the lease-efficiency accounting (per-lease granted vs.
	// used cycles, ops absorbed, deferral inflicted).
	LeaseLedger *telemetry.LedgerSummary `json:"lease_ledger,omitempty"`

	// Window is the measured window's hardware counters.
	Window machine.Stats `json:"counters"`

	// HotLines is the recorder's top contended lines, filled when
	// Options.HotLines asks for them.
	HotLines []HotLineRow `json:"hot_lines,omitempty"`

	// EngineStats is the event kernel's host-side counters for the run
	// (machine.Machine.EngineStats), read once the machine has stopped,
	// failed runs included; nil when no machine was built. They say how the
	// host executed the run, never what it simulated.
	EngineStats *sim.EngineStats `json:"engine_stats,omitempty"`

	// Err is set when the run failed (deadlock, panic, protocol or
	// invariant violation, blown cycle budget); the metric fields above,
	// EngineStats aside, are zero then. A sweep reports the failed cell and
	// continues.
	Err *RunError `json:"-"`
}

// Options selects the optional observability features of a run.
// The zero value reproduces the plain harness: no telemetry, no checker.
type Options struct {
	// Recorder, when non-nil, is attached to the machine's telemetry bus
	// and additionally observes per-operation latency for every operation
	// that starts inside the measurement window.
	Recorder *telemetry.Recorder
	// Invariants attaches the runtime invariant checker (see the
	// invariant package); any violation fails the run with a RunError
	// carrying the diagnostic dump. With fault injection disabled the
	// checker is a pure observer and does not change simulated timing.
	Invariants bool
	// HotLines, when positive, ranks that many of the recorder's most
	// contended lines into Result.HotLines, read while the machine that
	// counted their traffic is still alive.
	HotLines int
}

// ThroughputOpts runs a standard throughput benchmark with observability
// options: build the structure, spawn `threads` workers looping op, warm
// up, then measure a window. Telemetry rides
// on the host side of the simulation (bus subscribers, local-clock reads),
// so enabling it never changes the run: for a given cfg.Seed the measured
// window and the engine_stats are identical with and without a Recorder.
//
// A failed run (deadlock, livelock, escaping panic, protocol or invariant
// violation) never crashes the caller: it returns a Result whose Err
// carries the classified cause and a machine state dump.
func ThroughputOpts(cfg machine.Config, threads int, warm, window uint64,
	build func(d *machine.Direct) OpFunc, o Options) Result {

	ob := o.observe(warm)
	rec := o.Recorder
	counts := make([]uint64, threads)
	loop := func(d *machine.Direct) func(int, *machine.Ctx) {
		op := build(d)
		if rec != nil {
			inner := op
			op = func(tid int, c *machine.Ctx) {
				start := c.Now()
				inner(tid, c)
				end := c.Now()
				// The op-end bookkeeping touches only this core's spans and
				// ledger entries, so it needs no place in the event order
				// (DESIGN.md §2.4).
				if start >= warm {
					rec.OpLatency.Observe(end - start)
				}
				// Threads spawn on cores in order, so tid == core id.
				rec.Spans.OpEnd(tid, start, end, start >= warm)
				rec.Ledger.OpEnd(tid, start >= warm)
			}
		}
		return func(tid int, c *machine.Ctx) {
			for {
				op(tid, c)
				counts[tid]++
			}
		}
	}
	var r Result
	// measure runs inside the guard from the first cycle to the assembled
	// Result: tearing the machine down runs the killed procs' defers.
	measure := func(m *machine.Machine) *RunError {
		if err := runTo(m, warm, threads); err != nil {
			return err
		}
		start := m.Stats()
		startCounts := append([]uint64(nil), counts...)
		if err := runTo(m, warm+window, threads); err != nil {
			return err
		}
		w := m.Stats().Sub(start)
		var ops, minT, maxT uint64
		minT = ^uint64(0)
		for i := range counts {
			d := counts[i] - startCounts[i]
			ops += d
			if d < minT {
				minT = d
			}
			if d > maxT {
				maxT = d
			}
		}
		if rec != nil {
			rec.Finish(m.Now())
		}
		m.Stop()
		if err := ob.check(m, threads); err != nil {
			return err
		}
		r = summarize(m.Config(), ops, w)
		if maxT > 0 {
			r.Fairness = float64(minT) / float64(maxT)
		}
		ob.fill(&r)
		return nil
	}
	m, re := runGuarded(cfg, threads, ob.attach, loop, measure)
	return finished(m, r, re)
}

// observers is what a run attaches for its Options: the recorder and the
// invariant checker. traffic is the machine's per-line traffic, which the
// recorder's rankings join.
type observers struct {
	Options
	chk     *invariant.Checker
	traffic telemetry.TrafficSource
}

// observe aligns the recorder's span and ledger accounting with a
// measurement that starts at cycle warm: what starts before it is assembled
// but not aggregated.
func (o Options) observe(warm uint64) *observers {
	if rec := o.Recorder; rec != nil {
		rec.Spans.WindowStart = warm
		rec.Ledger.WindowStart = warm
	}
	return &observers{Options: o}
}

// attach hooks the checker and the recorder onto the idle machine.
func (ob *observers) attach(m *machine.Machine) {
	if ob.Invariants {
		ob.chk = invariant.Attach(m)
	}
	if ob.Recorder != nil {
		b := m.Telemetry()
		ob.Recorder.Attach(b)
		ob.traffic = b.Traffic
	}
}

// check runs the checker's end-of-run validation on the stopped machine.
func (ob *observers) check(m *machine.Machine, threads int) *RunError {
	if ob.chk == nil {
		return nil
	}
	ob.chk.CheckNow()
	if err := ob.chk.Err(); err != nil {
		return newRunError(m, threads, err)
	}
	return nil
}

// fill copies the recorder's digests and accounting into r.
func (ob *observers) fill(r *Result) {
	rec := ob.Recorder
	if rec == nil {
		return
	}
	r.OpLatency = summaryOf(&rec.OpLatency)
	r.LeaseHold = summaryOf(&rec.LeaseHold)
	r.ProbeDefer = summaryOf(&rec.ProbeDefer)
	r.DirQueue = summaryOf(&rec.DirQueue)
	st := rec.Spans.Stats()
	txns := st.Summary()
	r.Txns = &txns
	ledger := rec.Ledger.Summary(LedgerTopN, &rec.Lines, ob.traffic)
	r.LeaseLedger = &ledger
	if ob.HotLines > 0 {
		r.HotLines = hotLineRows(rec.Lines.Top(ob.HotLines, ob.traffic))
	}
}

// finished is a guarded run's Result: r, or the failure in its place, with
// the engine's counters of whatever machine was built.
func finished(m *machine.Machine, r Result, re *RunError) Result {
	if re != nil {
		r = Result{Err: re}
	}
	if m != nil {
		st := m.EngineStats()
		r.EngineStats = &st
	}
	return r
}

// runGuarded is the one place a cell's machine is built, run and torn down:
// machine.New, prepare (checker, recorder) on the idle machine, build
// on its Direct view, one proc per thread running body(tid, c), then drive —
// the caller's stop rule. Escaping panics (which the sim kernel re-raises on
// this goroutine as *sim.PanicError with cycle, proc, and event context) are
// recovered into RunErrors. The machine comes back with the error (nil when
// machine.New itself panicked) so the caller can read the state at failure.
func runGuarded(cfg machine.Config, threads int, prepare func(*machine.Machine),
	build func(*machine.Direct) func(tid int, c *machine.Ctx),
	drive func(*machine.Machine) *RunError) (m *machine.Machine, err *RunError) {

	defer func() {
		if r := recover(); r != nil {
			err = newRunError(m, threads, toError(r))
		}
		if err != nil && m != nil {
			m.Stop() // every failed cell, or its parked procs leak
		}
	}()
	m = machine.New(cfg)
	prepare(m)
	body := build(m.Direct())
	for i := 0; i < threads; i++ {
		m.Spawn(0, func(c *machine.Ctx) { body(i, c) })
	}
	return m, drive(m)
}

// runTo advances m to the given cycle, or to the end of the run if that
// comes first.
func runTo(m *machine.Machine, until uint64, threads int) *RunError {
	if rerr := m.Run(until); rerr != nil {
		return newRunError(m, threads, rerr)
	}
	return nil
}

// LedgerTopN is how many lines the ledger's top-wasted and top-deferral
// rankings carry in Result.LeaseLedger and JSON reports.
const LedgerTopN = 10

func summaryOf(h *telemetry.Hist) *telemetry.Summary {
	s := h.Summary()
	return &s
}

func summarize(cfg machine.Config, ops uint64, w machine.Stats) Result {
	r := Result{Ops: ops, Cycles: w.Cycles, Window: w}
	if w.Cycles == 0 || ops == 0 {
		return r
	}
	seconds := float64(w.Cycles) / float64(cfg.ClockHz)
	r.MopsPerSec = float64(ops) / seconds / 1e6
	r.NJPerOp = w.EnergyNJ(cfg.Energy) / float64(ops)
	r.MissesPerOp = float64(w.L1Misses) / float64(ops)
	r.MsgsPerOp = float64(w.TotalMsgs()) / float64(ops)
	r.CASFailsPerOp = float64(w.CASFailures) / float64(ops)
	return r
}

// classify maps a failure cause to a short reason tag for RunError.
func classify(err error) string {
	var (
		ie *invariant.Error
		pv *machine.ProtocolViolationError
		de *sim.DeadlockError
		se *sim.StallError
		pe *sim.PanicError
	)
	switch {
	case errors.As(err, &ie):
		return "invariant"
	case errors.As(err, &pv):
		return "protocol"
	case errors.As(err, &de):
		return "deadlock"
	case errors.As(err, &se):
		return "livelock"
	case errors.As(err, &pe):
		return "panic"
	}
	return "error"
}

func toError(r interface{}) error {
	if err, ok := r.(error); ok {
		return err
	}
	return fmt.Errorf("panic: %v", r)
}

// newRunError converts a failure cause into a RunError with a machine
// state dump: the checker's, taken at the first violation with the events
// that led to it, when the cause carries one; else the machine's now. Safe
// with m == nil (failure before construction).
func newRunError(m *machine.Machine, threads int, cause error) *RunError {
	re := &RunError{Threads: threads, Reason: classify(cause), Cause: cause, Detail: cause.Error()}
	if m != nil {
		re.Cycle = m.Now()
	}
	var ie *invariant.Error
	switch {
	case errors.As(cause, &ie) && ie.Dump != nil:
		re.Dump = ie.Dump
	case m != nil:
		re.Dump = m.DumpState()
	}
	return re
}

// DefaultCycleBudget bounds RunToCompletion when the caller passes
// budget 0: generous for every shipped experiment, but finite, so a
// non-terminating workload becomes a reported failure instead of a hang.
const DefaultCycleBudget uint64 = 500_000_000

// RunToCompletion runs a fixed-work program (e.g. Pagerank) under a cycle
// budget with o's observers, whose accounting covers the whole run.
// Result.Cycles is the cycle at which its last thread finished
// (machine.Machine.FinishedAt; Window.Cycles is the clock once the queue
// had drained, stale expiry timers included) and Window the run's counters.
// A run that deadlocks, panics, or exhausts the budget fails as
// ThroughputOpts's does.
func RunToCompletion(cfg machine.Config, threads int, budget uint64,
	build func(d *machine.Direct) func(tid int, c *machine.Ctx), o Options) Result {

	if budget == 0 {
		budget = DefaultCycleBudget
	}
	ob := o.observe(0)
	var r Result
	m, re := runGuarded(cfg, threads, ob.attach, build, func(m *machine.Machine) *RunError {
		if re := runTo(m, budget, threads); re != nil {
			return re
		}
		d := m.DumpState()
		for _, c := range d.Cores {
			if !c.Done {
				re := &RunError{Threads: threads, Cycle: m.Now(), Reason: "budget",
					Detail: fmt.Sprintf("cycle budget %d exhausted before completion", budget), Dump: d}
				re.Cause = errors.New(re.Detail)
				return re
			}
		}
		if o.Recorder != nil {
			o.Recorder.Finish(m.Now())
		}
		if err := ob.check(m, threads); err != nil {
			return err
		}
		r = Result{Cycles: m.FinishedAt(), Window: m.Stats()}
		ob.fill(&r)
		return nil
	})
	return finished(m, r, re)
}
