package sim

import "testing"

// The hot paths of the kernel must not allocate in steady state: every
// simulated memory access costs at least one event or proc handoff, so a
// single allocation per step dominates host time with GC work. These
// guards pin the zero-alloc property the event queue (a fixed bucket array
// in front of a typed heap) and the allocation-free proc wakes were built
// for. They are skipped under -race, where the detector instruments
// allocations and AllocsPerRun over-counts, so CI runs them in its plain
// `go test ./...` step.

// TestEventDispatchZeroAlloc drives a self-rescheduling event chain — the
// event-dispatch path: bucket pop, exec, reschedule — and asserts the
// steady state allocates nothing.
func TestEventDispatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	e := NewEngine()
	var step func()
	step = func() { e.After(1, step) }
	e.After(1, step)
	var chain func()
	chain = func() { e.After(0, func() {}); e.After(2, chain) }
	e.After(1, chain)
	if err := e.Run(100); err != nil { // warm up queue capacity
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.Run(e.Now() + 16); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("event dispatch allocates %.1f objects per 16 cycles, want 0", allocs)
	}
}

// TestProcHandoffZeroAlloc runs two procs that interleave cycle-by-cycle
// through Sync — the park/wake handoff path: wake scheduling, token
// transfer, resume — and asserts the steady state allocates nothing.
func TestProcHandoffZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	e := NewEngine()
	worker := func(p *Proc) {
		for {
			p.Work(1)
			p.Sync()
		}
	}
	e.Spawn(0, 0, 1, worker)
	e.Spawn(1, 0, 2, worker)
	if err := e.Run(100); err != nil { // warm up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.Run(e.Now() + 32); err != nil {
			t.Fatal(err)
		}
	})
	e.KillAll()
	if allocs != 0 {
		t.Errorf("proc handoff allocates %.1f objects per 32 cycles, want 0", allocs)
	}
}

// TestBlockWakeZeroAlloc exercises the third hot shape — a proc blocking
// on an external event that wakes it (the coherence-miss path).
func TestBlockWakeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	e := NewEngine()
	p := e.Spawn(0, 0, 1, func(p *Proc) {
		for {
			p.Block("waiting for reply")
		}
	})
	var ping func()
	ping = func() {
		p.WakeAt(e.Now() + 1)
		e.After(2, ping)
	}
	e.After(1, ping)
	if err := e.Run(100); err != nil { // warm up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.Run(e.Now() + 32); err != nil {
			t.Fatal(err)
		}
	})
	e.KillAll()
	if allocs != 0 {
		t.Errorf("block/wake allocates %.1f objects per 32 cycles, want 0", allocs)
	}
}

// TestBlockAfterZeroAlloc exercises the miss issued by an event: a proc ahead
// of a ticking clock posts its issue callback in its wake's place and blocks
// until the callback wakes it.
func TestBlockAfterZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	e := NewEngine()
	var p *Proc
	issue := func() { p.WakeAt(e.Now() + 1) }
	p = e.Spawn(0, 0, 1, func(p *Proc) {
		for {
			p.Work(3)
			p.BlockAfter(issue, "waiting for reply")
		}
	})
	var tick func()
	tick = func() { e.After(1, tick) }
	e.After(1, tick)
	if err := e.Run(100); err != nil { // warm up
		t.Fatal(err)
	}
	before := e.Stats().SyncIssues
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.Run(e.Now() + 32); err != nil {
			t.Fatal(err)
		}
	})
	issued := e.Stats().SyncIssues - before
	e.KillAll()
	if allocs != 0 {
		t.Errorf("block-after allocates %.1f objects per 32 cycles, want 0", allocs)
	}
	if issued == 0 {
		t.Error("no issue callback was queued")
	}
}
