package bench

import (
	"errors"
	"runtime"
	"testing"

	"leaserelease/internal/core"
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
// threads blocked.
func TestFailedCellLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, progress := range []*CellProgress{nil, NewProgress().Cell("deadlock")} {
		var m *machine.Machine
		build := func(d *machine.Direct) OpFunc {
			lines := [2]mem.Addr{d.Alloc(8), d.Alloc(8)}
			return func(tid int, c *machine.Ctx) {
				c.Lease(lines[tid], 20_000)
				m.ForEachLease(tid, func(e *core.Entry) { e.Gen++ })
				c.Work(1000)
				c.Store(lines[1-tid], 1)
			}
		}
		r := ThroughputOpts(machine.DefaultConfig(2), 2, 50_000, 50_000, build, Options{
			Hooks:    []func(*machine.Machine){func(mm *machine.Machine) { m = mm }},
			Progress: progress, // nil: one Run per phase; set: chunked stepping
		})
		var de *sim.DeadlockError
		if r.Err == nil || r.Err.Reason != "deadlock" || !errors.As(r.Err, &de) {
			t.Fatalf("cell error = %v, want a deadlock", r.Err)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("%d goroutines after the deadlocked cell, %d before it", n, before)
		}
	}
}
