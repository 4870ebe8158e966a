// Package invariant is the simulator's runtime correctness monitor. It
// subscribes to the telemetry bus (PR 1) and validates, on every event,
// the invariants the paper's argument rests on:
//
//   - MSI agreement: for every non-busy line an event touches, the
//     directory's committed state must agree with all cores' L1 states —
//     a Modified line has no second writer and no stale sharer, a Shared
//     line has no writer and only recorded sharers, an Invalid line is
//     cached nowhere.
//   - Lease-table bounds: each core holds at most MAX_NUM_LEASES entries,
//     in FIFO (strictly generation-increasing) order, and no started
//     lease survives past its deadline (the MAX_LEASE_TIME bound).
//   - Proposition 1: at most one coherence probe is ever queued behind a
//     leased line; a second concurrent deferral is a protocol bug.
//   - Bounded probe deferral: a deferred probe must be served by the
//     lease's deadline (plus a small scheduling slack); probes deferred
//     during a MultiLease acquisition phase get the correspondingly
//     larger Proposition-2-style bound.
//   - Event-order sanity: bus events carry non-decreasing timestamps.
//
// The checker is a pure observer: it reads simulated state but never
// mutates it and schedules no events, so — like all telemetry — enabling
// it cannot change simulated timing. Violations are collected (not
// panicked) together with a structured machine.StateDump captured at the
// first violation, giving harnesses a typed, debuggable failure instead
// of a dead process.
package invariant

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"leaserelease/internal/core"
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
	"leaserelease/internal/telemetry"
)

const (
	// historyLen is the size of the last-events ring included in
	// diagnostic dumps.
	historyLen = 32
	// maxViolations caps how many violations are recorded before the
	// checker goes quiet. The first violation usually cascades; the cap
	// keeps dumps readable.
	maxViolations = 16
	// deadlineSlack is the scheduling slack, in cycles, allowed past a
	// lease deadline before a still-deferred probe counts as starved
	// (expiry timers fire exactly at the deadline, but the serve itself
	// takes a few events).
	deadlineSlack = 256
)

// Violation is one observed invariant breach.
type Violation struct {
	Cycle  uint64 `json:"cycle"`
	Rule   string `json:"rule"`
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[cycle %d] %s: %s", v.Cycle, v.Rule, v.Detail)
}

// Error aggregates a run's violations with the diagnostic dump captured
// when the first one was observed.
type Error struct {
	Violations []Violation        `json:"violations"`
	Dump       *machine.StateDump `json:"dump,omitempty"`
}

func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "invariant: %d violation(s); first: %s", len(e.Violations), e.Violations[0])
	return b.String()
}

type defKey struct {
	core int
	line mem.Line
}

type deferral struct {
	queuedAt uint64
	deadline uint64 // latest legal serve time
}

// Checker validates invariants on every telemetry event. Construct with
// Attach; all methods must be called from the simulation goroutine (the
// same context bus subscribers run in).
type Checker struct {
	m *machine.Machine

	maxLease uint64
	maxN     int

	lastTime uint64
	deferred map[defKey]deferral

	history  []telemetry.Event
	histPos  int
	histFull bool

	// agreementRule names the per-line agreement invariant after the
	// machine's protocol: "msi-agreement" or "tardis-agreement".
	agreementRule string

	// Checks counts individual invariant evaluations (tests use it to
	// prove the checker actually ran).
	Checks uint64

	violations []Violation
	dump       *machine.StateDump
}

// Attach subscribes a new checker to the machine's telemetry bus. The
// machine's bus is created on first use, so attaching enables telemetry
// emission — but the checker itself never perturbs simulated timing.
//
// The checker's handlers read live machine state (directory entries, L1
// states) at the moment of each event, which the bus guarantees: every
// subscriber runs synchronously inside the emitting call.
func Attach(m *machine.Machine) *Checker {
	c := &Checker{
		m:             m,
		maxLease:      m.Config().Lease.MaxLeaseTime,
		maxN:          m.Config().Lease.MaxNumLeases,
		deferred:      make(map[defKey]deferral),
		history:       make([]telemetry.Event, historyLen),
		agreementRule: m.ProtocolName() + "-agreement",
	}
	m.Telemetry().SubscribeAll(c.onEvent)
	return c
}

// groupBound is the deferral bound for probes queued during a MultiLease
// acquisition phase: every group line acquisition can itself wait behind
// another core's lease, so the phase is bounded by MAX_NUM_LEASES chained
// waits (cf. Proposition 2's wait-time analysis) plus transit latency.
func (c *Checker) groupBound(now uint64) uint64 {
	return now + uint64(c.maxN+1)*c.maxLease + 50_000
}

func (c *Checker) violate(cycle uint64, rule, format string, args ...interface{}) {
	if len(c.violations) >= maxViolations {
		return
	}
	c.violations = append(c.violations, Violation{
		Cycle: cycle, Rule: rule, Detail: fmt.Sprintf(format, args...),
	})
	if c.dump == nil {
		c.dump = c.m.DumpState()
		c.dump.Events = machine.DumpEvents(c.History())
	}
}

func (c *Checker) onEvent(e telemetry.Event) {
	c.Checks++
	c.history[c.histPos] = e
	c.histPos++
	if c.histPos == len(c.history) {
		c.histPos = 0
		c.histFull = true
	}

	if e.Time < c.lastTime {
		c.violate(e.Time, "event-order",
			"event time %d precedes previous event time %d (cat %s kind %d)",
			e.Time, c.lastTime, e.Cat, e.Kind)
	}
	c.lastTime = e.Time

	switch e.Cat {
	case telemetry.CatLease:
		c.checkLeaseEvent(e)
		if e.Core >= 0 && e.Core < c.m.NumCores() {
			c.checkTable(e.Core, e.Time)
		}
	case telemetry.CatDirQueue:
		if e.Val < 1 {
			c.violate(e.Time, "dir-queue",
				"line %#x arrival reported occupancy %d < 1", uint64(e.Line), e.Val)
		}
	}

	// CatTxn events mark transaction-internal instants (queue arrival,
	// service, invalidation fan-out, completion hand-off) where the line
	// is legitimately mid-transition — e.g. the directory has granted M
	// while invalidation acks are still in flight — so line agreement is
	// only probed on the protocol-level events. The rule is named after
	// the active protocol: MSI agreement for the directory, timestamp
	// order (wts <= rts, reservations within rts) for Tardis.
	if e.Line != 0 && e.Cat != telemetry.CatTxn {
		if err := c.m.VerifyLine(e.Line); err != nil {
			c.violate(e.Time, c.agreementRule, "%v", err)
		}
	}

	c.checkDeferred(e.Time)
}

// findLease returns core's lease entry for line, or nil.
func (c *Checker) findLease(coreID int, line mem.Line) *core.Entry {
	var found *core.Entry
	c.m.ForEachLease(coreID, func(e *core.Entry) {
		if e.Line == line {
			found = e
		}
	})
	return found
}

func (c *Checker) checkLeaseEvent(e telemetry.Event) {
	switch e.Kind {
	case telemetry.ProbeDeferred:
		k := defKey{core: e.Core, line: e.Line}
		if d, ok := c.deferred[k]; ok {
			c.violate(e.Time, "proposition-1",
				"second probe deferred on core %d line %#x (first queued at cycle %d)",
				e.Core, uint64(e.Line), d.queuedAt)
			return
		}
		// A probe on a started lease must be served by the deadline; one
		// queued during a group acquisition phase gets the larger bound.
		deadline := c.groupBound(e.Time)
		if le := c.findLease(e.Core, e.Line); le != nil && le.Started {
			deadline = le.Deadline + deadlineSlack
		}
		c.deferred[k] = deferral{queuedAt: e.Time, deadline: deadline}

	case telemetry.ProbeServed:
		k := defKey{core: e.Core, line: e.Line}
		d, ok := c.deferred[k]
		if !ok {
			c.violate(e.Time, "proposition-1",
				"probe served on core %d line %#x with no recorded deferral",
				e.Core, uint64(e.Line))
			return
		}
		delete(c.deferred, k)
		if e.Time > d.deadline {
			c.violate(e.Time, "probe-deferral-bound",
				"probe on core %d line %#x served %d cycles after queueing (deadline was cycle %d)",
				e.Core, uint64(e.Line), e.Time-d.queuedAt, d.deadline)
		}
	}
}

// checkTable validates one core's lease table: size bound, FIFO
// (generation) order, and the MAX_LEASE_TIME deadline bound.
func (c *Checker) checkTable(coreID int, now uint64) {
	n, lastGen := 0, uint64(0)
	c.m.ForEachLease(coreID, func(e *core.Entry) {
		n++
		if e.Gen <= lastGen {
			c.violate(now, "lease-fifo",
				"core %d lease table out of FIFO order: gen %d after gen %d (line %#x)",
				coreID, e.Gen, lastGen, uint64(e.Line))
		}
		lastGen = e.Gen
		if e.Duration > c.maxLease {
			c.violate(now, "lease-bound",
				"core %d line %#x lease duration %d exceeds MAX_LEASE_TIME %d",
				coreID, uint64(e.Line), e.Duration, c.maxLease)
		}
		if e.Started && now > e.Deadline {
			c.violate(now, "lease-deadline",
				"core %d line %#x lease outlived its deadline %d (now %d)",
				coreID, uint64(e.Line), e.Deadline, now)
		}
	})
	if n > c.maxN {
		c.violate(now, "lease-bound",
			"core %d holds %d leases, exceeding MAX_NUM_LEASES %d", coreID, n, c.maxN)
	}
}

// checkDeferred flags probes still queued past their serve deadline (a
// starved probe would otherwise only surface as a deadlock much later), in
// (core, line) order, so the recorded violations — and which of them the
// cap keeps — do not depend on the map's iteration order.
func (c *Checker) checkDeferred(now uint64) {
	var late []defKey
	for k, d := range c.deferred {
		if now > d.deadline {
			late = append(late, k)
		}
	}
	slices.SortFunc(late, func(a, b defKey) int {
		return cmp.Or(cmp.Compare(a.core, b.core), cmp.Compare(a.line, b.line))
	})
	for _, k := range late {
		d := c.deferred[k]
		c.violate(now, "probe-deferral-bound",
			"probe on core %d line %#x still deferred %d cycles after queueing (deadline was cycle %d)",
			k.core, uint64(k.line), now-d.queuedAt, d.deadline)
		delete(c.deferred, k) // report once
	}
}

// CheckNow runs the full quiescent-state validation: the whole-protocol
// line cross-check plus every core's lease table. Call it after Run/Drain
// returns (per-event checks only cover lines that emitted events).
func (c *Checker) CheckNow() {
	now := c.m.Now()
	c.Checks++
	if err := c.m.VerifyCoherence(); err != nil {
		c.violate(now, c.agreementRule, "%v", err)
	}
	for i := 0; i < c.m.NumCores(); i++ {
		c.checkTable(i, now)
	}
	c.checkDeferred(now)
}

// History returns the last events observed, oldest first.
func (c *Checker) History() []telemetry.Event {
	if !c.histFull {
		return append([]telemetry.Event(nil), c.history[:c.histPos]...)
	}
	out := make([]telemetry.Event, 0, len(c.history))
	out = append(out, c.history[c.histPos:]...)
	out = append(out, c.history[:c.histPos]...)
	return out
}

// Err returns nil if every check passed, or an *Error carrying the
// violations and the diagnostic dump captured at the first one.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return &Error{Violations: c.violations, Dump: c.dump}
}
