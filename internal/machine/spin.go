package machine

import (
	"leaserelease/internal/cache"
	"leaserelease/internal/mem"
)

// spinState is a core's parked spin (Ctx.Spin): the thread is blocked, and
// its loads of line, each an L1 hit that reads the same word, are performed
// by spinTo.
type spinState struct {
	active bool
	line   mem.Line
	next   uint64 // cycle of the next load, its preemption point passed
	period uint64 // cycles from one load to the next, preemptions aside
}

// spinReason is the block reason of a parked spin (DumpState adds the line).
const spinReason = "spinning"

// Spin is API.Spin. After a load that reads v from a copy that only a
// message to the core can change, the thread blocks instead of loading
// again (parkSpin). Its loads go on in bulk, as L1 hits counted by
// arithmetic (spinTo): up to an event of its domain that downgrades the
// copy, ends a lease or delivers a probe, which performs the loads that
// order before it and wakes the thread for the next one (downgrade); up to
// the end of a Run; and up to a Direct store to the line, which wakes the
// thread too. Woken at the cycle of its next load, the thread performs it
// through access like any other, and what it reads decides whether it
// returns, parks again or goes on loading (DESIGN.md §2.4).
func (c *Ctx) Spin(a mem.Addr, v, pause uint64) uint64 {
	cs, l := c.cs, mem.LineOf(a)
	c.p.Work(pause)
	c.access(a, false)
	for {
		if u := c.m.store.Load(a); u != v {
			return u
		}
		c.p.Work(pause)
		c.m.maybePreempt(cs, false)
		if c.m.parkSpin(cs, l, pause, c.p.Clock()) {
			c.p.Block(spinReason)
		}
		c.perform(a, false)
	}
}

// parkSpin parks cs's spin on line l, whose next load is at cycle next, if
// what that load reads can change only through a message to the core: the
// core holds l, and the protocol keeps the copy private to it — every copy
// under MSI, and under Tardis only a Modified one. A Tardis read-forward's
// probe downgrades the owner to Shared before its commit clears the
// ownership that Private answers from; a spin parked in that window would
// miss the next owner's store, which sends the Shared reader no message. A
// loop that never moves the clock (no pause and no hit latency) is left to
// run as written.
func (m *Machine) parkSpin(cs *coreState, l mem.Line, pause, next uint64) bool {
	period := m.cfg.L1HitLat + pause
	if period == 0 || !cs.l1.Holds(l, false) || !m.proto.Private(cs.id, l, false) ||
		!(m.proto.CopiesPrivate() || cs.l1.State(l) == cache.Modified) {
		return false
	}
	cs.spin = spinState{active: true, line: l, next: next, period: period}
	m.spinning++
	m.spinParks++
	return true
}

// spinTo performs cs's parked loads at cycles before through: those that
// order before an event of the core's domain at cycle through (one of its
// own timers, which was queued before the load's wake would have been), or
// at through-1 (a message from the system domain, whose key sorts after the
// wake's at the same cycle; no other core sends the core anything but the
// grant of its own request, and a spinning core has none in flight). With
// no preemption to draw, the loads are counted by arithmetic; otherwise
// each one's preemption point is replayed from the core's own stream, with
// the holder status it has now, which only a lease end — an event that
// calls spinTo first — changes.
func (m *Machine) spinTo(cs *coreState, through uint64) {
	s := &cs.spin
	if !s.active || s.next >= through {
		return
	}
	if !m.faults.MayPreempt(cs.leases.Len() > 0) {
		n := (through - s.next + s.period - 1) / s.period
		cs.l1.HitN(s.line, n)
		s.next += n * s.period
		m.spinElided += n
		return
	}
	for s.next < through {
		cs.l1.HitN(s.line, 1)
		m.spinElided++
		s.next += s.period + m.maybePreempt(cs, false)
	}
}

// unpark ends cs's parked spin after its loads at cycles before through
// (spinTo): the thread is woken at the cycle of its next load, the slot the
// wake of the loop's Sync would have had.
func (m *Machine) unpark(cs *coreState, through uint64) {
	m.spinTo(cs, through)
	cs.spin.active = false
	m.spinning--
	cs.proc.WakeAt(cs.spin.next)
}

// unparkLine wakes every core parked spinning on line l (a Direct store to
// it), after its loads before the clock.
func (m *Machine) unparkLine(l mem.Line) {
	for _, cs := range m.cores {
		if cs.spin.active && cs.spin.line == l {
			m.unpark(cs, m.eng.Now())
		}
	}
}

// downgrade takes a permission from cs's copy of l, at an event of the
// core's domain: a probe, an invalidation or a Tardis lapse, or a probe
// deferred behind a lease that has ended. A core parked spinning on l first
// performs the loads that order before the event (spinTo, with through as
// there) and is woken for the next one, which sees the change.
func (m *Machine) downgrade(cs *coreState, l mem.Line, to cache.State, through uint64) {
	if cs.spin.active && cs.spin.line == l {
		m.unpark(cs, through)
	}
	cs.l1.Downgrade(l, to)
}
