package bench

import (
	"errors"
	"runtime"
	"testing"

	"leaserelease/internal/cache"
	"leaserelease/internal/core"
	"leaserelease/internal/invariant"
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
	"leaserelease/internal/sim"
)

// A failed cell must not leak its parked procs: each is a goroutine, and a
// sweep that carries on after a failure (the default) would pile them up.
//
// The cell deadlocks on purpose. The instruction set cannot (leases
// expire, MultiLease sorts), so the op breaks the hardware: each of two
// threads leases its own line, bumps the entry's generation so the expiry
// timer mistakes the lease for a released one, then stores to the other's
// line. Both probes stay deferred and the event queue drains with both
// threads blocked. runGuarded is what stops a failed cell's machine, and its
// prepare hands the op the machine.
func TestFailedCellLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	var m *machine.Machine
	build := func(d *machine.Direct) func(int, *machine.Ctx) {
		lines := [2]mem.Addr{d.Alloc(8), d.Alloc(8)}
		return func(tid int, c *machine.Ctx) {
			c.Lease(lines[tid], 20_000)
			m.ForEachLease(tid, func(e *core.Entry) { e.Gen++ })
			c.Work(1000)
			c.Store(lines[1-tid], 1)
		}
	}
	_, re := runGuarded(machine.DefaultConfig(2), 2, func(mm *machine.Machine) { m = mm }, build,
		func(m *machine.Machine) *RunError { return runTo(m, 100_000, 2) })
	var de *sim.DeadlockError
	if re == nil || re.Reason != "deadlock" || !errors.As(re, &de) {
		t.Fatalf("cell error = %v, want a deadlock", re)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the deadlocked cell, %d before it", n, before)
	}
}

// A fixed-work run takes as long as its last thread. The leases the threads
// released on the way left their expiry timers queued (cancellation is
// lazy), and draining those moves the clock on by most of a lease time:
// that tail is not the program's.
func TestRunToCompletionEndsWithLastThread(t *testing.T) {
	const threads = 4
	var finish [threads]uint64
	cycles, stats, err := RunToCompletion(machine.DefaultConfig(threads), threads, 0,
		func(d *machine.Direct) func(int, *machine.Ctx) {
			counter := d.Alloc(8)
			return func(tid int, c *machine.Ctx) {
				for i := 0; i < 20*(tid+1); i++ {
					c.Lease(counter, LeaseTime)
					c.Store(counter, c.Load(counter)+1)
					c.Release(counter)
				}
				c.Fence() // the engine clock catches up with the thread's
				finish[tid] = c.Now()
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	last := uint64(0)
	for _, f := range finish {
		last = max(last, f)
	}
	if cycles != last {
		t.Errorf("RunToCompletion = %d cycles, the last thread finished at %d (all: %v)", cycles, last, finish)
	}
	if stats.Cycles < cycles+LeaseTime/2 {
		t.Errorf("the drained clock is %d, %d past the last thread: the leased cell left no expiry timers behind and the test shows nothing",
			stats.Cycles, stats.Cycles-cycles)
	}
}

// An invariant failure reports the checker's dump: the state at the first
// violation with the telemetry events that led to it, not the machine as the
// window left it. The cell seeds a second writer (the corruption of the
// invariant package's TestMutationSecondWriter): core 1 installs the line
// Modified without a transaction while core 0 keeps leasing it.
func TestInvariantFailureCarriesFirstViolationDump(t *testing.T) {
	var (
		m   *machine.Machine
		chk *invariant.Checker
	)
	prepare := func(mm *machine.Machine) { m, chk = mm, invariant.Attach(mm) }
	build := func(d *machine.Direct) func(int, *machine.Ctx) {
		ctr := d.Alloc(8)
		return func(tid int, c *machine.Ctx) {
			if tid == 0 {
				for i := 0; i < 12; i++ {
					c.Lease(ctr, 2000)
					c.Store(ctr, c.Load(ctr)+1)
					c.Work(60)
					c.Release(ctr)
					c.Work(120)
				}
				return
			}
			c.Work(900)
			c.Fence()
			m.L1(1).Install(mem.LineOf(ctr), cache.Modified)
			c.Work(4000)
		}
	}
	_, re := runGuarded(machine.DefaultConfig(2), 2, prepare, build, func(m *machine.Machine) *RunError {
		if re := runTo(m, 100_000, 2); re != nil {
			return re
		}
		chk.CheckNow()
		return newRunError(m, 2, chk.Err())
	})
	var ie *invariant.Error
	if re == nil || re.Reason != "invariant" || !errors.As(re, &ie) {
		t.Fatalf("cell error = %v, want an invariant failure", re)
	}
	first := ie.Violations[0].Cycle
	if re.Dump == nil || re.Dump.Cycle != first || len(re.Dump.Events) == 0 {
		t.Fatalf("dump at cycle %d with %d events, want the first violation's (cycle %d) with its events",
			re.Dump.Cycle, len(re.Dump.Events), first)
	}
	if re.Cycle <= first {
		t.Errorf("the cell failed at cycle %d, not after its first violation at %d: the test shows nothing", re.Cycle, first)
	}
}
