package telemetry

import (
	"sort"

	"leaserelease/internal/mem"
)

// LineStats accumulates per-cache-line contention counters. A line's
// Score ranks it in the hot-line profile.
type LineStats struct {
	Line mem.Line

	Msgs           uint64 // coherence messages for the line
	Invals         uint64 // owner probes + sharer invalidations
	Deferred       uint64 // probes queued behind a lease
	DeferredCycles uint64 // total cycles probes spent deferred
	Leases         uint64 // lease entries created
	Breaks         uint64 // leases broken by regular requests
	Evictions      uint64 // L1 replacement victims
	MaxQueue       uint64 // peak directory queue occupancy
}

// Score is the contention ranking key: coherence conflict events
// (invalidations, deferred probes, lease breaks) weigh alongside raw
// message traffic.
func (s *LineStats) Score() uint64 {
	return s.Invals + s.Deferred + s.Breaks + s.Msgs
}

// HotLines aggregates LineStats per line and ranks the top K — turning
// "this workload is contended" into "these 3 lines are contended". The
// counters are values in a paged line index, so an event costs no hashing
// and, once its line's chunk exists, no allocation. The zero value is ready
// for use.
type HotLines struct {
	lines lineTable[LineStats]
}

// Get returns the (lazily created) counters for line l.
func (h *HotLines) Get(l mem.Line) *LineStats {
	s, made := h.lines.get(l)
	if made {
		s.Line = l
	}
	return s
}

// Find returns the counters for line l, or nil if l was never observed.
// Unlike Get it creates nothing, so a lookup leaves Len unchanged.
func (h *HotLines) Find(l mem.Line) *LineStats { return h.lines.find(l) }

// Top returns the k highest-Score lines, ties broken by more deferred
// probes, then more invalidations, then lower line address — a total
// order, so the ranking is deterministic for a given event stream.
func (h *HotLines) Top(k int) []LineStats {
	all := make([]LineStats, 0, h.lines.n)
	for s := range h.lines.all() {
		all = append(all, *s)
	}
	sort.Slice(all, func(i, j int) bool {
		si, sj := all[i].Score(), all[j].Score()
		if si != sj {
			return si > sj
		}
		if all[i].Deferred != all[j].Deferred {
			return all[i].Deferred > all[j].Deferred
		}
		if all[i].Invals != all[j].Invals {
			return all[i].Invals > all[j].Invals
		}
		return all[i].Line < all[j].Line
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}
