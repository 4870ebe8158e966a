package machine

import (
	"fmt"

	"leaserelease/internal/mem"
	"leaserelease/internal/telemetry"
)

// TraceKind classifies lease-mechanism events for tracing. The values
// alias the telemetry package's canonical lease-kind numbering, so bus
// subscribers and TraceEvent consumers agree on kinds.
type TraceKind int

const (
	// TraceLease: a lease entry was created.
	TraceLease = TraceKind(telemetry.LeaseCreated)
	// TraceStart: a lease countdown started (ownership granted).
	TraceStart = TraceKind(telemetry.LeaseStarted)
	// TraceVoluntary: released by the program before expiry.
	TraceVoluntary = TraceKind(telemetry.LeaseReleased)
	// TraceInvoluntary: the MAX_LEASE_TIME timer fired.
	TraceInvoluntary = TraceKind(telemetry.LeaseExpired)
	// TraceEvicted: FIFO-evicted by a newer lease (table full).
	TraceEvicted = TraceKind(telemetry.LeaseEvicted)
	// TraceForced: force-released to unpin a full L1 set.
	TraceForced = TraceKind(telemetry.LeaseForced)
	// TraceBroken: broken by a regular request (prioritization mode).
	TraceBroken = TraceKind(telemetry.LeaseBroken)
	// TraceDeferred: an incoming probe was queued behind the lease.
	TraceDeferred = TraceKind(telemetry.ProbeDeferred)
	// TraceIgnored: skipped by the speculative predictor.
	TraceIgnored = TraceKind(telemetry.LeaseIgnored)
)

func (k TraceKind) String() string {
	switch k {
	case TraceLease:
		return "lease"
	case TraceStart:
		return "start"
	case TraceVoluntary:
		return "release"
	case TraceInvoluntary:
		return "expire"
	case TraceEvicted:
		return "evict"
	case TraceForced:
		return "force"
	case TraceBroken:
		return "break"
	case TraceDeferred:
		return "defer"
	case TraceIgnored:
		return "ignore"
	}
	return fmt.Sprintf("TraceKind(%d)", int(k))
}

// TraceEvent is one lease-mechanism event.
type TraceEvent struct {
	Time uint64
	Core int
	Kind TraceKind
	Line mem.Line
}

// String renders the event as one log line.
func (e TraceEvent) String() string {
	return fmt.Sprintf("[%10d] core %2d %-7s line %#x", e.Time, e.Core, e.Kind, uint64(e.Line))
}

// Telemetry returns the machine's telemetry bus, creating and wiring it on
// first use (directory and per-core L1 caches start emitting into it).
// Before the first call, no bus exists and every emit site is a single
// nil-check — the disabled configuration has zero observable overhead.
func (m *Machine) Telemetry() *telemetry.Bus {
	if m.bus == nil {
		m.bus = telemetry.NewBus(m.eng.Now)
		m.proto.SetBus(m.bus)
		for _, cs := range m.cores {
			cs.l1.Bus = m.bus
			cs.l1.CoreID = cs.id
		}
	}
	return m.bus
}

// SetTracer subscribes fn to every lease-mechanism event, adapting the
// telemetry bus to the legacy single-callback interface. Tracing is for
// debugging and demonstrations; it does not affect timing. A nil fn is
// ignored (tracing stays as it was).
func (m *Machine) SetTracer(fn func(TraceEvent)) {
	if fn == nil {
		return
	}
	m.Telemetry().Subscribe(telemetry.CatLease, func(e telemetry.Event) {
		if e.Kind > uint8(TraceIgnored) {
			return // bus-only kinds (e.g. ProbeServed) are not TraceEvents
		}
		fn(TraceEvent{Time: e.Time, Core: e.Core, Kind: TraceKind(e.Kind), Line: e.Line})
	})
}

// trace emits a lease-lifecycle event with no measurement payload.
func (m *Machine) trace(cs *coreState, kind TraceKind, line mem.Line) {
	m.traceVal(cs, kind, line, telemetry.NoVal)
}

// traceVal emits a lease-lifecycle event onto the telemetry bus; val
// carries the kind-specific measurement (hold cycles for release-class
// kinds) or telemetry.NoVal.
func (m *Machine) traceVal(cs *coreState, kind TraceKind, line mem.Line, val uint64) {
	m.bus.Emit(telemetry.CatLease, cs.id, uint8(kind), line, val)
}
