package coherence

import (
	"fmt"

	"leaserelease/internal/cache"
	"leaserelease/internal/mem"
	"leaserelease/internal/telemetry"
)

// Canonical protocol names, as accepted by machine.Config.Protocol and the
// cmds' -protocol flags.
const (
	// ProtocolMSI is the directory-based MSI protocol (Directory), the
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
func ValidProtocol(name string) bool {
	switch name {
	case "", ProtocolMSI, ProtocolTardis:
		return true
	}
	return false
}

// ProtoStats is a snapshot of a protocol's internal counters, merged into
// machine.Stats. Renewals and RTSJumps stay zero under MSI.
type ProtoStats struct {
	// MaxQueue is the peak per-line request queue occupancy observed.
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

// Protocol is a pluggable coherence protocol: request admission and
// service, probe/inval delivery back through an Env, completion hand-off,
// and the state queries the dump/invariant layers need. Directory (MSI)
// and tardis.Protocol implement it; the machine depends only on this
// interface after construction.
//
// All methods must be called from engine-event context (they are not
// goroutine-safe), matching the deterministic simulation discipline.
type Protocol interface {
	// Name returns the canonical protocol name (Protocol* constants).
	Name() string

	// Submit issues a core's request at the current time; the protocol
	// calls back into its Env (probes, invalidations, Complete) as the
	// transaction progresses.
	Submit(req *Request)
	// ProbeDone resumes a probe the Env deferred behind a lease. owner is
	// the core that held the probe: the call runs in that core's context,
	// and its domain is the source of the resulting messages — it keys
	// their events and is what the lookahead check measures from.
	ProbeDone(owner int, req *Request)
	// Writeback records a dirty (Modified) eviction by core on line l.
	Writeback(core int, l mem.Line)
	// SharerDrop records a silent Shared eviction by core on line l.
	SharerDrop(core int, l mem.Line)

	// LineInfo reports the protocol's committed view of one line: a
	// protocol-specific state string, the owner (valid when owned), a
	// sharer/reader bitset, and whether the line is mid-transaction.
	LineInfo(l mem.Line) (state string, owner int, sharers uint64, busy bool)
	// ForEachLine visits every line the protocol has ever tracked.
	ForEachLine(fn func(l mem.Line, state string, owner int, sharers uint64, busy bool))
	// QueueLen returns the line's current request queue length (including
	// the request in service).
	QueueLen(l mem.Line) int
	// LineTimestamps reports a timestamp protocol's per-line (wts, rts);
	// ok is false for protocols without timestamps (MSI).
	LineTimestamps(l mem.Line) (wts, rts uint64, ok bool)
	// CoreTimestamp reports a timestamp protocol's per-core program
	// timestamp; ok is false for protocols without one.
	CoreTimestamp(core int) (pts uint64, ok bool)

	// VerifyLine cross-checks one non-busy line's committed protocol state
	// against the cores' L1 states (l1 reports each core's cached state)
	// and the protocol's own internal invariants — MSI agreement for the
	// directory, timestamp order (wts <= rts, reservations within rts) for
	// Tardis. It returns the first violation found.
	VerifyLine(l mem.Line, ncores int, l1 func(core int) cache.State) error

	// ProtoStats snapshots the protocol's internal counters.
	ProtoStats() ProtoStats
	// SetBus wires the telemetry bus (created lazily by the machine).
	SetBus(b *telemetry.Bus)

	// LeaseStarted and LeaseReleased notify the protocol of the core-side
	// lease lifecycle, letting a protocol with native reservation support
	// map leases onto its own mechanism: under Tardis a started lease
	// becomes a bounded rts reservation (duration is already clamped to
	// MAX_LEASE_TIME) and a release truncates it. MSI ignores both — all
	// its lease logic stays on the core side, as in the paper.
	LeaseStarted(core int, l mem.Line, duration uint64)
	LeaseReleased(core int, l mem.Line)
}

// ---- Directory's Protocol implementation ----

// Name returns ProtocolMSI.
func (d *Directory) Name() string { return ProtocolMSI }

// SetBus wires the telemetry bus into the directory.
func (d *Directory) SetBus(b *telemetry.Bus) { d.Bus = b }

// ProtoStats snapshots the directory's internal counters.
func (d *Directory) ProtoStats() ProtoStats {
	return ProtoStats{MaxQueue: d.MaxQueue, DeferredProbes: d.DeferredProbes}
}

// LineTimestamps reports ok=false: MSI has no timestamps.
func (d *Directory) LineTimestamps(mem.Line) (uint64, uint64, bool) { return 0, 0, false }

// CoreTimestamp reports ok=false: MSI has no program timestamps.
func (d *Directory) CoreTimestamp(int) (uint64, bool) { return 0, false }

// LeaseStarted is a no-op: MSI keeps all lease state on the core side.
func (d *Directory) LeaseStarted(int, mem.Line, uint64) {}

// LeaseReleased is a no-op: MSI keeps all lease state on the core side.
func (d *Directory) LeaseReleased(int, mem.Line) {}

// VerifyLine cross-checks one line's committed directory state against
// every core's L1 state: a Modified line has no second writer and no stale
// sharer, a Shared line has no writer and only recorded sharers, an
// Invalid line is cached nowhere. The caller must skip busy lines.
func (d *Directory) VerifyLine(l mem.Line, ncores int, l1 func(core int) cache.State) error {
	state, owner, sharers, _ := d.LineInfo(l)
	for c := 0; c < ncores; c++ {
		st := l1(c)
		switch state {
		case "M":
			if st == cache.Modified && c != owner {
				return fmt.Errorf("line %#x: dir owner %d but core %d holds M", uint64(l), owner, c)
			}
			if st == cache.Shared {
				return fmt.Errorf("line %#x: dir M but core %d holds S", uint64(l), c)
			}
		case "S":
			if st == cache.Modified {
				return fmt.Errorf("line %#x: dir S but core %d holds M", uint64(l), c)
			}
			if st == cache.Shared && sharers&(1<<uint(c)) == 0 {
				return fmt.Errorf("line %#x: core %d holds S but is not a recorded sharer", uint64(l), c)
			}
		case "I":
			if st != cache.Invalid {
				return fmt.Errorf("line %#x: dir I but core %d holds %v", uint64(l), c, st)
			}
		}
	}
	return nil
}

var _ Protocol = (*Directory)(nil)
