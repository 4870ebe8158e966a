package telemetry

import (
	"cmp"

	"leaserelease/internal/mem"
)

// LineStats is one line's contention counters, as Top ranks them: the
// directory's traffic and the Recorder's lease counters.
type LineStats struct {
	Line mem.Line
	Traffic
	leaseCounts
}

// leaseCounts is the lease half of a line's contention counters, which the
// Recorder folds from CatLease events.
type leaseCounts struct {
	Deferred       uint64 // probes queued behind a lease
	DeferredCycles uint64 // total cycles probes spent deferred
	Leases         uint64 // lease entries created
	Breaks         uint64 // leases broken by regular requests
}

// Score is the contention ranking key: coherence conflict events
// (invalidations, deferred probes, lease breaks) weigh alongside raw
// message traffic.
func (s *LineStats) Score() uint64 {
	return s.Invals + s.Deferred + s.Breaks + s.Msgs
}

// hotter is the hot-line order: higher Score first, ties broken by more
// deferred probes, then more invalidations, then lower line address — a
// total order, so the ranking is deterministic for a given run.
func hotter(a, b LineStats) int {
	return cmp.Or(cmp.Compare(b.Score(), a.Score()), cmp.Compare(b.Deferred, a.Deferred),
		cmp.Compare(b.Invals, a.Invals), cmp.Compare(a.Line, b.Line))
}

// HotLines ranks lines by contention — turning "this workload is contended"
// into "these 3 lines are contended". It keeps the lease half of a line's
// counters as one record of a line table (get makes it, find makes nothing);
// a ranking reads the traffic half from the run's TrafficSource, which a nil
// source leaves zero. It holds no source, so a kept profile does not hold
// the machine that counted its traffic.
type HotLines struct {
	lineTable[leaseCounts]
}

// stats returns l's counters, zero if l was never seen. It makes nothing.
func (h *HotLines) stats(src TrafficSource, l mem.Line) LineStats {
	s := LineStats{Line: l, leaseCounts: h.value(l)}
	if src != nil {
		s.Traffic = src.LineTraffic(l)
	}
	return s
}

// Top returns the k hottest lines, hottest first, with their traffic read
// from src: every line with traffic, and every line with only lease
// counters.
func (h *HotLines) Top(k int, src TrafficSource) []LineStats {
	r := ranking[LineStats]{k: k, cmp: hotter}
	if src != nil {
		for l := range src.AllTraffic() {
			r.offer(h.stats(src, l))
		}
	}
	for l := range h.all() {
		if s := h.stats(src, l); s.Traffic == (Traffic{}) {
			r.offer(s)
		}
	}
	return r.best()
}
