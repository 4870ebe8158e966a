package coherence

import (
	"iter"
	"slices"

	"leaserelease/internal/cache"
	"leaserelease/internal/mem"
	"leaserelease/internal/sim"
	"leaserelease/internal/telemetry"
)

// Canonical protocol names, as accepted by machine.Config.Protocol and the
// cmds' -protocol flags.
const (
	// ProtocolMSI is the directory-based MSI protocol (NewDirectory), the
	// substrate the paper evaluates on. The empty string also selects it.
	ProtocolMSI = "msi"
	// ProtocolTardis is the Tardis-style logical-timestamp protocol
	// (package coherence/tardis): read reservations via rts extension
	// instead of invalidation fan-out.
	ProtocolTardis = "tardis"
)

// Protocols lists the valid protocol names, in canonical order.
func Protocols() []string { return []string{ProtocolMSI, ProtocolTardis} }

// ValidProtocol reports whether name selects a known protocol. The empty
// string is valid (it means the default, MSI).
func ValidProtocol(name string) bool { return name == "" || slices.Contains(Protocols(), name) }

// ProtoStats holds a directory's internal counters, merged into
// machine.Stats. The directory keeps the first two, the policy the others:
// Renewals and RTSJumps stay zero under MSI.
type ProtoStats struct {
	// MaxQueue is the peak per-line request queue occupancy observed (§5
	// discusses leases potentially increasing directory queuing).
	MaxQueue int
	// DeferredProbes counts probes queued at a leased core.
	DeferredProbes uint64
	// Renewals counts tag-only timestamp renewals (Tardis: a re-read of an
	// unwritten line extends rts without a data transfer).
	Renewals uint64
	// RTSJumps counts writes whose logical commit time jumped past an
	// active read reservation — each one an invalidation fan-out that MSI
	// would have paid and Tardis did not.
	RTSJumps uint64
}

// Policy is a coherence protocol as the Directory sees it: a name, the
// per-line records, and the hooks that are not about one transaction. All of
// a protocol's transaction logic is in the records (LinePolicy).
type Policy interface {
	// Name returns the canonical protocol name (Protocol* constants).
	Name() string
	// NewLine returns the record of line l in its initial state: the
	// policy's own struct, taken from the policy's Slab, with the
	// directory's Line embedded in it and Line.Policy pointing back at the
	// whole, so that a fresh line allocates nothing and the one index lookup
	// of a hop reaches both halves.
	NewLine(l mem.Line) *Line

	// LeaseStarted and LeaseReleased report the core-side lease lifecycle,
	// letting a protocol with native reservations map leases onto its own
	// mechanism: under Tardis a started lease becomes a bounded rts
	// reservation (duration is already clamped to MAX_LEASE_TIME) and a
	// release truncates it. MSI ignores both without looking the line up —
	// all its lease logic stays on the core side, as in the paper. Both run
	// in the leasing core's context, and a lease that starts with a grant
	// is reported before the line's Commit at the same cycle.
	LeaseStarted(core int, l mem.Line, duration uint64)
	LeaseReleased(core int, l mem.Line)
}

// Privacy is implemented by a policy under which another core can see or
// change what a core reads or writes in a copy its L1 holds, with no message
// to that core: Tardis, whose readers keep a Shared copy of a word that a
// new owner overwrites until their reservations lapse. A policy without it
// (MSI) keeps every copy private, since another core reaches one only by a
// probe or an invalidation, and the Directory then answers Private without a
// call.
type Privacy interface {
	// Private reports whether core's copy of l, which its L1 holds with
	// the permission the access needs, is private to the core for the
	// access (write: a store): whether only a message to the core lets
	// another core see or change what it reads or writes there.
	Private(core int, l mem.Line, write bool) bool
}

// LinePolicy is the protocol's half of one line's record: the state it keeps
// and the decisions it takes on it. Serve, Commit and Evict run in the
// directory's domain, Lapsed in a reader's. A policy sends no message and
// schedules no event: what it decides, the directory carries out.
type LinePolicy interface {
	// Serve decides how req, which has just reached the head of the line's
	// queue, is answered, and records the transition Commit will apply.
	// The line serves one request at a time, so one pending transition per
	// line is enough; it must name the requester itself, because the
	// requester may reuse req as soon as the grant is delivered.
	Serve(req *Request) Decision
	// Commit applies the pending transition: the grant has been delivered
	// earlier in the same cycle. If it reserved copies that lapse at end
	// (Tardis), readers is their cores' bitset, and the directory sends each
	// a lapse notice that lands on its domain at end.
	Commit() (readers uint64, end sim.Time)
	// Evict applies core's eviction notice, a hop after the eviction: of a
	// Modified copy (dirty) or of a Shared one. The line may be serving a
	// request that raced the notice, and ownership may have moved on.
	Evict(core int, dirty bool)
	// Lapsed answers core's lapse notice: whether its copy is invalidated
	// now, which it is not if re-granted, evicted or promoted meanwhile, or
	// about to be replaced by a grant in flight.
	Lapsed(core int) bool

	// View reports the committed State, Owner, Sharers and timestamps; the
	// directory fills in the rest.
	View() LineView
	// Verify cross-checks the committed state against the cores' L1 states
	// (l1 reports each core's) and the policy's own invariants — MSI
	// agreement, or Tardis's timestamp order (wts <= rts, reservations
	// within rts). It returns the first violation found. The directory
	// calls it for lines with no transaction in flight only; l, the line's
	// address, is for the report.
	Verify(l mem.Line, ncores int, l1 func(core int) cache.State) error
}

// Line is the directory's half of one line's record, a slab element embedded
// in the policy's: the FIFO of waiting requests and the one in service, and
// the line's traffic. The line's address is the record's key in the
// directory's index; a policy that needs it keeps it (NewLine).
type Line struct {
	// Policy is the protocol's half of the record; Policy.NewLine sets it.
	Policy LinePolicy

	// The FIFO of waiting requests, linked through Request.next: service
	// pops head, arrive links at tail.
	head, tail *Request
	// The line's telemetry.Traffic, counted while the directory has a bus.
	msgs, invals        uint64
	evictions, maxQueue uint32
	waiting             int32
	busy                bool // a request is in service: from Serve to Commit
	touched             bool // filled at least once (cold-miss tracking)
}

// Slab hands out zeroed records of type T, made 256 at a time. Nothing is
// returned to it: the directory never drops a line.
type Slab[T any] struct{ free []T }

// New returns a zeroed record.
func (s *Slab[T]) New() *T {
	if len(s.free) == 0 {
		s.free = make([]T, 256)
	}
	r := &s.free[0]
	s.free = s.free[1:]
	return r
}

// Decision is how a request at the head of its line's queue is answered.
type Decision struct {
	// Forward sends a probe to Owner, which holds the line exclusively and
	// answers the requester itself once it has downgraded its copy — after
	// its lease, if it holds one. Otherwise the directory answers:
	Forward bool
	Owner   int
	// after the cores in Inval have dropped their Shared copies,
	Inval uint64
	// with a grant and no data if TagOnly (a Tardis renewal: tag latency, no
	// L2 access, booked as a renewal in the transaction's span), with the
	// line from the L2 otherwise (from DRAM the first time).
	TagOnly bool
	// ExclClean grants a read in exclusive state (MESI's E).
	ExclClean bool
}

// LineView is a directory's committed view of one line, for tests, dumps
// (it is machine.StateDump's per-line entry) and checkers.
type LineView struct {
	Line  mem.Line
	State string // "I", "S" or "M"
	// Owner is valid in state M. Sharers is the sharer bitset under MSI and
	// the cores with an unexpired read reservation under Tardis.
	Owner   int
	Sharers uint64
	// Busy lines are mid-transaction (QueueLen counts the request in
	// service and those waiting); their state is about to change and
	// checkers skip them.
	Busy     bool
	QueueLen int
	// WTS and RTS are a timestamp protocol's; zero under MSI.
	WTS uint64
	RTS uint64
}

func (ln *Line) view(l mem.Line) LineView {
	v := ln.Policy.View()
	v.Line, v.QueueLen = l, int(ln.waiting)
	if ln.busy {
		v.QueueLen++
	}
	v.Busy = v.QueueLen > 0
	return v
}

// View reports the directory's view of line l. Like all directory state it
// is current between events only: a thread reads it after a Fence, not in
// the cycle of its own grant, whose Commit comes later in that cycle.
func (d *Directory) View(l mem.Line) LineView {
	if ln := d.Line(l); ln != nil {
		return ln.view(l)
	}
	return LineView{Line: l, State: "I"}
}

// Lines visits every line the directory has ever tracked, in ascending
// order.
func (d *Directory) Lines() iter.Seq[LineView] {
	return func(yield func(LineView) bool) {
		for l, ln := range d.lines.All() {
			if *ln != nil && !yield((*ln).view(l)) {
				return
			}
		}
	}
}

// LineTraffic returns l's traffic (telemetry.TrafficSource).
func (d *Directory) LineTraffic(l mem.Line) telemetry.Traffic { return d.Line(l).traffic() }

// AllTraffic visits every line with nonzero traffic, in ascending order.
func (d *Directory) AllTraffic() iter.Seq2[mem.Line, telemetry.Traffic] {
	return func(yield func(mem.Line, telemetry.Traffic) bool) {
		for l, ln := range d.lines.All() {
			if t := (*ln).traffic(); t != (telemetry.Traffic{}) && !yield(l, t) {
				return
			}
		}
	}
}

// traffic returns the line's counts; a nil record's are zero.
func (ln *Line) traffic() telemetry.Traffic {
	if ln == nil {
		return telemetry.Traffic{}
	}
	return telemetry.Traffic{Msgs: ln.msgs, Invals: ln.invals, Evictions: uint64(ln.evictions), MaxQueue: uint64(ln.maxQueue)}
}

// VerifyLine checks line l with its policy's Verify; a line in the middle of
// a transaction passes. A line nobody has asked for yet is checked in its
// initial state, the directory's blank record, which costs no record.
func (d *Directory) VerifyLine(l mem.Line, ncores int, l1 func(core int) cache.State) error {
	ln := d.Line(l)
	switch {
	case ln == nil:
		ln = d.blank
	case ln.busy || ln.waiting > 0:
		return nil
	}
	return ln.Policy.Verify(l, ncores, l1)
}
