package machine

import (
	"fmt"
	"strings"

	"leaserelease/internal/cache"
	"leaserelease/internal/coherence"
	"leaserelease/internal/core"
	"leaserelease/internal/faults"
	"leaserelease/internal/telemetry"
)

// StateDump is a structured snapshot of the simulated machine, produced
// when a run fails (deadlock, protocol violation, invariant violation, or
// an escaping panic) so the failure is debuggable without re-running under
// a tracer. It renders as text via String.
type StateDump struct {
	Cycle      uint64
	EventCount uint64
	Pending    int
	Seed       uint64
	Protocol   string // empty under MSI (the default)
	Cores      []CoreDump
	// DirLines is the directory's view of every active line, by address
	// (lines that are Invalid with no queued work are omitted).
	DirLines []coherence.LineView
	Faults   faults.Stats
	Events   []EventDump
}

// CoreDump is one core's state: scheduling status and lease table.
type CoreDump struct {
	ID          int
	Done        bool
	Blocked     bool
	BlockReason string
	BlockSince  uint64
	Preempted   uint64
	Leases      []LeaseDump
}

// LeaseDump is one currently-held lease-table entry. The owning core is
// the enclosing CoreDump; GrantCycle/Deadline bound the hold window, so a
// StallError/RunError dump shows exactly which lease a victim is waiting
// behind and until when — without rerunning under a tracer.
type LeaseDump struct {
	Line       uint64
	Duration   uint64
	Started    bool
	GrantCycle uint64
	Deadline   uint64
	InGroup    bool
	HasProbe   bool
	Pinned     bool
}

// EventDump is one telemetry event in dump form (its category by name, so
// the dump is readable without the numbering tables).
type EventDump struct {
	Time uint64
	Core int
	Cat  string
	Kind uint8
	Line uint64
	Val  uint64
}

// DumpEvents converts telemetry events (e.g. an invariant checker's
// history ring) to dump form.
func DumpEvents(evs []telemetry.Event) []EventDump {
	out := make([]EventDump, 0, len(evs))
	for _, e := range evs {
		v := e.Val
		if v == telemetry.NoVal {
			v = 0
		}
		out = append(out, EventDump{Time: e.Time, Core: e.Core,
			Cat: e.Cat.String(), Kind: e.Kind, Line: uint64(e.Line), Val: v})
	}
	return out
}

// DumpState snapshots the machine for diagnostics. It is safe to call at
// any point the engine is paused (between events, or after Run returns).
func (m *Machine) DumpState() *StateDump {
	d := &StateDump{
		Cycle:      m.eng.Now(),
		EventCount: m.eng.Stats().EventsTotal,
		Pending:    m.eng.Pending(),
		Seed:       m.cfg.Seed,
		Faults:     m.faults.Stats(),
	}
	if name := m.proto.Name(); name != coherence.ProtocolMSI {
		d.Protocol = name
	}
	for _, cs := range m.cores {
		cd := CoreDump{ID: cs.id}
		if cs.proc != nil {
			blocked, reason, since, done := cs.proc.Status()
			if blocked && strings.HasPrefix(reason, "waiting for Get") {
				// Blocked on a coherence miss: the core's pooled request
				// is in flight exactly while it blocks, so the line it
				// waits on is read back here instead of being formatted
				// into the (hot-path, allocation-free) block reason.
				reason = fmt.Sprintf("%s on line %#x", reason, uint64(cs.req.Line))
			}
			cd.Blocked, cd.BlockReason, cd.BlockSince, cd.Done = blocked, reason, since, done
			cd.Preempted = cs.proc.PreemptedCycles()
		}
		cs.leases.ForEach(func(e *core.Entry) {
			grant, _ := e.GrantCycle()
			cd.Leases = append(cd.Leases, LeaseDump{
				Line: uint64(e.Line), Duration: e.Duration, Started: e.Started,
				GrantCycle: grant,
				Deadline:   e.Deadline, InGroup: e.InGroup, HasProbe: e.HasProbe(),
				Pinned: cs.l1.Pinned(e.Line),
			})
		})
		d.Cores = append(d.Cores, cd)
	}
	for v := range m.proto.Lines() { // in line order
		if v.State != "I" || v.Busy {
			d.DirLines = append(d.DirLines, v)
		}
	}
	return d
}

// String renders the dump as an indented text report.
func (d *StateDump) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine state at cycle %d (seed %d, %d events executed, %d pending)\n",
		d.Cycle, d.Seed, d.EventCount, d.Pending)
	if d.Protocol != "" {
		fmt.Fprintf(&b, "  protocol: %s\n", d.Protocol)
	}
	for _, c := range d.Cores {
		status := "running"
		switch {
		case c.Done:
			status = "done"
		case c.Blocked:
			status = fmt.Sprintf("blocked: %s (since cycle %d)", c.BlockReason, c.BlockSince)
		}
		if c.Preempted > 0 {
			status += fmt.Sprintf(" (preempted %d cycles total)", c.Preempted)
		}
		fmt.Fprintf(&b, "  core %2d: %s\n", c.ID, status)
		for _, l := range c.Leases {
			state := "pending"
			if l.Started {
				state = fmt.Sprintf("granted @%d, deadline %d", l.GrantCycle, l.Deadline)
			}
			extras := ""
			if l.InGroup {
				extras += " group"
			}
			if l.HasProbe {
				extras += " +probe"
			}
			if l.Pinned {
				extras += " pinned"
			}
			fmt.Fprintf(&b, "    lease line %#x dur %d (%s)%s\n", l.Line, l.Duration, state, extras)
		}
	}
	for _, l := range d.DirLines {
		ts := ""
		if l.WTS > 0 || l.RTS > 0 {
			ts = fmt.Sprintf(" wts=%d rts=%d", l.WTS, l.RTS)
		}
		fmt.Fprintf(&b, "  dir line %#x: %s owner %d sharers %#x busy=%v queue=%d%s\n",
			uint64(l.Line), l.State, l.Owner, l.Sharers, l.Busy, l.QueueLen, ts)
	}
	if f := (faults.Stats{}); d.Faults != f {
		fmt.Fprintf(&b, "  faults injected: %+v\n", d.Faults)
	}
	if len(d.Events) > 0 {
		fmt.Fprintf(&b, "  last %d telemetry events:\n", len(d.Events))
		for _, e := range d.Events {
			fmt.Fprintf(&b, "    [%10d] core %2d %-9s kind %d line %#x val %d\n",
				e.Time, e.Core, e.Cat, e.Kind, e.Line, e.Val)
		}
	}
	return b.String()
}

// ---- diagnostic accessors used by the invariant checker and tests ----

// NumCores returns the machine's core count.
func (m *Machine) NumCores() int { return len(m.cores) }

// ForEachLease visits core c's lease table in FIFO (insertion) order.
// Read-only: callers must not mutate entries.
func (m *Machine) ForEachLease(c int, fn func(e *core.Entry)) {
	m.cores[c].leases.ForEach(fn)
}

// L1 exposes core c's private cache for tests and diagnostics (e.g. the
// invariant mutation tests corrupt it deliberately).
func (m *Machine) L1(c int) *cache.Cache { return m.cores[c].l1 }
