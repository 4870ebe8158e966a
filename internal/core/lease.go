// Package core implements the paper's primary contribution: the per-core
// lease table of the Lease/Release mechanism (Algorithms 1 and 2).
//
// The table is pure bookkeeping — it decides *whether* an incoming
// coherence probe must be deferred and *what* must happen on a release —
// while the machine package wires it to the cache controller, schedules
// expiry events, and actually delivers deferred probes. Keeping the table
// free of simulator dependencies makes the paper's semantics directly
// unit-testable.
//
// Like the hardware it models, the table is one small array of Entry
// values, allocated once by NewTable and searched linearly. An entry that
// leaves the table is returned by value, so no caller holds a pointer into
// a slot a later Insert reuses; the pointers Find, Start, QueueProbe,
// StartGroup and ForEach hand out are valid until the table next changes.
//
// Semantics implemented (paper §3–§4):
//
//   - Lease(addr, t) on an already-leased address is a no-op: leases cannot
//     be extended, preserving the MAX_LEASE_TIME bound (§3, footnote 1).
//   - At most MaxNumLeases entries; inserting into a full table evicts the
//     oldest entry in FIFO order, which the caller must treat as a
//     voluntary release.
//   - A lease's countdown starts only when exclusive ownership is granted;
//     the duration is clamped to MaxLeaseTime.
//   - At most one coherence probe is queued per leased line (Proposition 1).
//   - A hardware MultiLease group defers probes on group lines even before
//     the joint countdown starts (during the sorted acquisition phase), and
//     all counters start together once every line in the group is owned.
package core

import (
	"slices"

	"leaserelease/internal/mem"
)

// Config bounds the leasing mechanism. Both bounds are system-wide
// constants in the paper.
type Config struct {
	// MaxLeaseTime is the upper bound, in core cycles, on any lease
	// (the paper's MAX_LEASE_TIME; §7 uses 20 000 cycles = 20 µs at 1 GHz).
	MaxLeaseTime uint64
	// MaxNumLeases is the maximum number of simultaneously held leases
	// per core (the paper's MAX_NUM_LEASES).
	MaxNumLeases int
}

// DefaultConfig mirrors the paper's evaluation setup.
func DefaultConfig() Config {
	return Config{MaxLeaseTime: 20000, MaxNumLeases: 8}
}

// Entry is one leased (or being-leased) cache line.
type Entry struct {
	Line     mem.Line
	Duration uint64 // clamped lease length in cycles
	Deadline uint64 // absolute expiry time, valid when Started
	Timer    uint64 // when the expiry timer fires: Deadline, unless the caller moved it earlier
	Gen      uint64 // generation, to lazily cancel stale expiry events
	Started  bool   // ownership granted, countdown running

	// InGroup marks membership in the core's single active MultiLease
	// group. Group entries defer probes during the acquisition phase
	// (before Started) — the behaviour whose deadlock-freedom
	// Proposition 3 establishes via globally sorted acquisition.
	InGroup bool

	// Site identifies the program location (the "program counter" of §5's
	// speculative mechanism) that took this lease; the machine's lease
	// predictor attributes involuntary releases to it.
	Site uint64

	// ProbeQueuedAt is the cycle the deferred probe (if any) was queued;
	// the machine's telemetry uses it to measure probe-deferral delay.
	ProbeQueuedAt uint64

	probe interface{} // at most one deferred coherence probe (opaque)
}

// GrantCycle returns the cycle at which the countdown started (the grant
// time, Deadline − Duration) for a started entry; ok is false for an
// entry whose ownership is still pending.
func (e *Entry) GrantCycle() (cycle uint64, ok bool) {
	if !e.Started {
		return 0, false
	}
	return e.Deadline - e.Duration, true
}

// HasProbe reports whether a probe is queued on this entry.
func (e *Entry) HasProbe() bool { return e.probe != nil }

// TakeProbe removes and returns the queued probe (nil if none).
func (e *Entry) TakeProbe() interface{} {
	p := e.probe
	e.probe = nil
	return p
}

// Table is a core's lease table. The zero value is unusable; use NewTable.
type Table struct {
	maxLeaseTime uint64
	// fifo holds the live entries, oldest first. Its capacity is
	// MaxNumLeases and never changes: a removal shifts the later entries
	// down, and an insert into a full table evicts fifo[0] first, so FIFO
	// order and strictly increasing Gen hold by construction.
	fifo    []Entry
	nextGen uint64
}

// NewTable returns an empty lease table.
func NewTable(cfg Config) *Table {
	if cfg.MaxNumLeases <= 0 {
		panic("core: MaxNumLeases must be positive")
	}
	return &Table{maxLeaseTime: cfg.MaxLeaseTime, fifo: make([]Entry, 0, cfg.MaxNumLeases)}
}

// Len returns the number of live entries.
func (t *Table) Len() int { return len(t.fifo) }

func (t *Table) index(l mem.Line) int {
	for i := range t.fifo {
		if t.fifo[i].Line == l {
			return i
		}
	}
	return -1
}

// Find returns the entry for line l, or nil.
func (t *Table) Find(l mem.Line) *Entry {
	if i := t.index(l); i >= 0 {
		return &t.fifo[i]
	}
	return nil
}

// ForEach visits every live entry in FIFO (insertion) order. Callers must
// not add or remove entries during iteration; checkers and diagnostics use
// this to validate bounds and FIFO ordering without copying.
func (t *Table) ForEach(fn func(e *Entry)) {
	for i := range t.fifo {
		fn(&t.fifo[i])
	}
}

// Insert creates a lease entry for line l with the requested duration
// (clamped to MaxLeaseTime) and returns it. If l is already leased, Insert
// does nothing and returns nil — leases are never extended. If the table is
// full, the oldest entry is evicted FIFO and returned as old with
// evicted=true; the caller must treat it as a voluntary release (deliver
// its probe, unpin, ...).
func (t *Table) Insert(l mem.Line, duration uint64, inGroup bool) (e *Entry, old Entry, evicted bool) {
	if t.index(l) >= 0 {
		return nil, Entry{}, false
	}
	if len(t.fifo) == cap(t.fifo) {
		old, evicted = t.removeAt(0), true
	}
	t.nextGen++
	t.fifo = append(t.fifo, Entry{Line: l, Duration: min(duration, t.maxLeaseTime),
		Gen: t.nextGen, InGroup: inGroup})
	return &t.fifo[len(t.fifo)-1], old, evicted
}

// Start begins the countdown for line l at time now, returning the entry
// with its Deadline set. Start on a missing or already-started entry
// returns nil (the lease was force-released while its ownership request was
// in flight, or Start raced a duplicate grant).
func (t *Table) Start(l mem.Line, now uint64) *Entry {
	e := t.Find(l)
	if e == nil || e.Started {
		return nil
	}
	e.start(now)
	return e
}

func (e *Entry) start(now uint64) {
	e.Started = true
	e.Deadline = now + e.Duration
	e.Timer = e.Deadline
}

// StartGroup starts the countdown of every not-yet-started MultiLease group
// entry at time now (correlated counters, §5 "MultiLeases require the
// counters ... to be correlated") and visits each as it starts, in table
// (acquisition) order. visit must not add or remove entries.
func (t *Table) StartGroup(now uint64, visit func(e *Entry)) {
	for i := range t.fifo {
		if e := &t.fifo[i]; e.InGroup && !e.Started {
			e.start(now)
			visit(e)
		}
	}
}

// ShouldDefer reports whether a coherence probe for line l arriving at time
// now must be queued at this core rather than serviced: either the lease
// has started and has not yet expired, or the line belongs to a MultiLease
// group still in its acquisition phase.
func (t *Table) ShouldDefer(l mem.Line, now uint64) bool {
	e := t.Find(l)
	if e == nil {
		return false
	}
	if e.Started {
		return now < e.Deadline
	}
	return e.InGroup
}

// ExpiresBy reports whether the expiry timer of some started lease fires at
// or before now (timers of leases already released are cancelled lazily and
// do not show here). The machine consults it before it lets a core act ahead
// of the event queue.
func (t *Table) ExpiresBy(now uint64) bool {
	for i := range t.fifo {
		if e := &t.fifo[i]; e.Started && e.Timer <= now {
			return true
		}
	}
	return false
}

// QueueProbe stores the (single) deferred probe on line l and returns the
// entry it waits on. It panics if a probe is already queued — Proposition
// 1 guarantees the directory never sends a second concurrent probe for the
// same line, so a violation is a protocol bug, not a recoverable condition.
func (t *Table) QueueProbe(l mem.Line, probe interface{}) *Entry {
	e := t.Find(l)
	if e == nil {
		panic("core: queueing probe on unleased line")
	}
	if e.probe != nil {
		panic("core: second probe queued on one line (violates Proposition 1)")
	}
	e.probe = probe
	return e
}

// Remove deletes the entry for line l and returns it; ok is false if l is
// not leased. The caller services any deferred probe on the returned
// entry. This is the voluntary-release path.
func (t *Table) Remove(l mem.Line) (e Entry, ok bool) {
	i := t.index(l)
	if i < 0 {
		return Entry{}, false
	}
	return t.removeAt(i), true
}

// RemoveIfGen deletes the entry for line l only if it still has generation
// gen and has started, and returns it. Expiry events use this to cancel
// lazily: a voluntary release or FIFO eviction bumps the entry out, and the
// stale timer then finds nothing.
func (t *Table) RemoveIfGen(l mem.Line, gen uint64) (e Entry, ok bool) {
	i := t.index(l)
	if i < 0 || t.fifo[i].Gen != gen || !t.fifo[i].Started {
		return Entry{}, false
	}
	return t.removeAt(i), true
}

// RemoveOldest removes and returns the oldest lease; ok is false if the
// table is empty. It force-releases a lease when an L1 set is fully pinned,
// and drained until empty it is MultiRelease ("the MultiLease call will
// first release all currently held leases").
func (t *Table) RemoveOldest() (e Entry, ok bool) {
	if len(t.fifo) == 0 {
		return Entry{}, false
	}
	return t.removeAt(0), true
}

// removeAt copies entry i out, shifts the later entries down one slot and
// clears the vacated one, so a dropped probe is not kept reachable.
func (t *Table) removeAt(i int) Entry {
	e := t.fifo[i]
	t.fifo = slices.Delete(t.fifo, i, i+1)
	return e
}
