package telemetry

import (
	"sort"

	"leaserelease/internal/mem"
)

// LineStats is one line's contention counters, as Top ranks them.
type LineStats struct {
	Line mem.Line
	lineCounts
}

// lineCounts accumulates one cache line's contention counters. A line's
// Score ranks it in the hot-line profile.
type lineCounts struct {
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
func (s *lineCounts) Score() uint64 {
	return s.Invals + s.Deferred + s.Breaks + s.Msgs
}

// HotLines aggregates contention counters per line and ranks the top K —
// turning "this workload is contended" into "these 3 lines are contended".
// A line's counters are one record of a line table (get makes it, find
// makes nothing), so an event costs no hashing and, once its record's page
// and index chunk exist, no allocation. The zero value is ready for use.
type HotLines struct {
	lineTable[lineCounts]
}

// Top returns the k highest-Score lines, ties broken by more deferred
// probes, then more invalidations, then lower line address — a total
// order, so the ranking is deterministic for a given event stream.
func (h *HotLines) Top(k int) []LineStats {
	all := make([]LineStats, 0, h.n)
	for l, c := range h.all() {
		all = append(all, LineStats{l, *c})
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
