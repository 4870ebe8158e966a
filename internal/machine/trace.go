package machine

import (
	"leaserelease/internal/mem"
	"leaserelease/internal/telemetry"
)

// Telemetry returns the machine's telemetry bus, creating and wiring it on
// first use (directory and per-core L1 caches start emitting into it; the
// directory, the bus's TrafficSource, counts each line's traffic). Before
// the first call, no bus exists and every emit site is a single nil-check —
// the disabled configuration has zero observable overhead.
func (m *Machine) Telemetry() *telemetry.Bus {
	if m.bus == nil {
		m.bus = telemetry.NewBus(m.eng.Now)
		m.bus.Traffic = m.proto
		m.proto.Bus = m.bus
		for _, cs := range m.cores {
			cs.l1.Bus = m.bus
			cs.l1.CoreID = cs.id
		}
	}
	return m.bus
}

// trace emits a lease-lifecycle event with no measurement payload.
func (m *Machine) trace(cs *coreState, kind uint8, line mem.Line) {
	m.traceVal(cs, kind, line, telemetry.NoVal)
}

// traceVal emits a lease-lifecycle event (one of telemetry's Lease*/Probe*
// kinds) onto the telemetry bus; val carries the kind-specific measurement
// (hold cycles for release-class kinds) or telemetry.NoVal.
func (m *Machine) traceVal(cs *coreState, kind uint8, line mem.Line, val uint64) {
	m.bus.Emit(telemetry.CatLease, cs.id, kind, line, val)
}
