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

import "leaserelease/internal/mem"

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
	cfg     Config
	fifo    []*Entry // insertion order, oldest first
	byLine  map[mem.Line]*Entry
	nextGen uint64
}

// NewTable returns an empty lease table.
func NewTable(cfg Config) *Table {
	if cfg.MaxNumLeases <= 0 {
		panic("core: MaxNumLeases must be positive")
	}
	return &Table{cfg: cfg, byLine: make(map[mem.Line]*Entry)}
}

// Config returns the table's bounds.
func (t *Table) Config() Config { return t.cfg }

// Len returns the number of live entries.
func (t *Table) Len() int { return len(t.fifo) }

// Find returns the entry for line l, or nil.
func (t *Table) Find(l mem.Line) *Entry { return t.byLine[l] }

// ForEach visits every live entry in FIFO (insertion) order. Callers must
// not mutate the table during iteration; checkers and diagnostics use this
// to validate bounds and FIFO ordering without copying.
func (t *Table) ForEach(fn func(e *Entry)) {
	for _, e := range t.fifo {
		fn(e)
	}
}

// Insert creates a lease entry for line l with the requested duration
// (clamped to MaxLeaseTime). If l is already leased, Insert does nothing
// and returns inserted=false — leases are never extended. If the table is
// full, the oldest entry is evicted FIFO and returned; the caller must
// treat it as a voluntary release (deliver its probe, unpin, ...).
func (t *Table) Insert(l mem.Line, duration uint64, inGroup bool) (evicted *Entry, inserted bool) {
	if _, ok := t.byLine[l]; ok {
		return nil, false
	}
	if duration > t.cfg.MaxLeaseTime {
		duration = t.cfg.MaxLeaseTime
	}
	if len(t.fifo) >= t.cfg.MaxNumLeases {
		evicted = t.removeAt(0)
	}
	t.nextGen++
	e := &Entry{Line: l, Duration: duration, Gen: t.nextGen, InGroup: inGroup}
	t.fifo = append(t.fifo, e)
	t.byLine[l] = e
	return evicted, true
}

// Start begins the countdown for line l at time now, returning the entry
// with its Deadline set. Start on a missing or already-started entry
// returns nil (the lease was force-released while its ownership request was
// in flight, or Start raced a duplicate grant).
func (t *Table) Start(l mem.Line, now uint64) *Entry {
	e := t.byLine[l]
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

// GroupPending returns how many MultiLease-group entries are still waiting
// for exclusive ownership. Ownership of group lines arrives one by one
// (sorted order); once the last grant lands (GroupPending()==0 after the
// caller's Start bookkeeping), the machine calls StartGroup to start all
// counters together.
func (t *Table) GroupPending() int {
	n := 0
	for _, e := range t.fifo {
		if e.InGroup && !e.Started {
			n++
		}
	}
	return n
}

// StartGroup starts the countdown of every not-yet-started group entry at
// time now (correlated counters, §5 "MultiLeases require the counters ...
// to be correlated"). It returns the started entries.
func (t *Table) StartGroup(now uint64) []*Entry {
	var started []*Entry
	for _, e := range t.fifo {
		if e.InGroup && !e.Started {
			e.start(now)
			started = append(started, e)
		}
	}
	return started
}

// GroupLines returns the lines of the current MultiLease group, in table
// (acquisition) order.
func (t *Table) GroupLines() []mem.Line {
	var ls []mem.Line
	for _, e := range t.fifo {
		if e.InGroup {
			ls = append(ls, e.Line)
		}
	}
	return ls
}

// ShouldDefer reports whether a coherence probe for line l arriving at time
// now must be queued at this core rather than serviced: either the lease
// has started and has not yet expired, or the line belongs to a MultiLease
// group still in its acquisition phase.
func (t *Table) ShouldDefer(l mem.Line, now uint64) bool {
	e := t.byLine[l]
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
	for _, e := range t.fifo {
		if e.Started && e.Timer <= now {
			return true
		}
	}
	return false
}

// QueueProbe stores the (single) deferred probe on line l. It panics if a
// probe is already queued — Proposition 1 guarantees the directory never
// sends a second concurrent probe for the same line, so a violation is a
// protocol bug, not a recoverable condition.
func (t *Table) QueueProbe(l mem.Line, probe interface{}) {
	e := t.byLine[l]
	if e == nil {
		panic("core: queueing probe on unleased line")
	}
	if e.probe != nil {
		panic("core: second probe queued on one line (violates Proposition 1)")
	}
	e.probe = probe
}

// Remove deletes the entry for line l and returns it (nil if absent). The
// caller services any deferred probe on the returned entry. This is the
// voluntary-release path.
func (t *Table) Remove(l mem.Line) *Entry {
	e := t.byLine[l]
	if e == nil {
		return nil
	}
	for i, x := range t.fifo {
		if x == e {
			return t.removeAt(i)
		}
	}
	panic("core: table fifo/byLine out of sync")
}

// RemoveIfGen deletes the entry for line l only if it still has generation
// gen and has started; it returns the entry or nil. Expiry events use this
// to cancel lazily: a voluntary release or FIFO eviction bumps the entry
// out, and the stale timer then finds nothing.
func (t *Table) RemoveIfGen(l mem.Line, gen uint64) *Entry {
	e := t.byLine[l]
	if e == nil || e.Gen != gen || !e.Started {
		return nil
	}
	return t.Remove(l)
}

// RemoveOldest force-releases the oldest lease (used when an L1 set is
// fully pinned). Returns nil if the table is empty.
func (t *Table) RemoveOldest() *Entry {
	if len(t.fifo) == 0 {
		return nil
	}
	return t.removeAt(0)
}

// RemoveAll empties the table, returning the removed entries in FIFO order.
// MultiLease calls this first ("the MultiLease call will first release all
// currently held leases").
func (t *Table) RemoveAll() []*Entry {
	out := t.fifo
	t.fifo = nil
	for l := range t.byLine {
		delete(t.byLine, l)
	}
	return out
}

func (t *Table) removeAt(i int) *Entry {
	e := t.fifo[i]
	t.fifo = append(t.fifo[:i], t.fifo[i+1:]...)
	delete(t.byLine, e.Line)
	return e
}
