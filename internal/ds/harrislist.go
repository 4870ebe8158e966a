package ds

import (
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
)

// HarrisList is Harris's lock-free sorted linked list set [17]. Deletion
// marks the victim's next pointer (low bit) and physical unlinking is done
// by searches, exactly as in the original algorithm. Keys must lie in
// [1, 2^64-2].
//
// With a lease time > 0 the predecessor's line is leased around the unlink
// CAS in Remove (leasing traversal-path nodes more aggressively measured
// as a net loss under search-heavy workloads; see EXPERIMENTS.md).
type HarrisList struct {
	head      mem.Addr
	tail      mem.Addr
	leaseTime uint64
}

const (
	hlKey  = 0
	hlNext = 8
	hlSize = 16

	markBit = 1
)

func marked(p uint64) bool   { return p&markBit != 0 }
func unmark(p uint64) uint64 { return p &^ markBit }

// NewHarrisList allocates an empty set with sentinels.
func NewHarrisList(x machine.API, lease uint64) *HarrisList {
	l := &HarrisList{head: x.Alloc(hlSize), tail: x.Alloc(hlSize), leaseTime: lease}
	x.Store(l.head+hlKey, 0)
	x.Store(l.tail+hlKey, ^uint64(0))
	x.Store(l.head+hlNext, uint64(l.tail))
	return l
}

// search returns (pred, curr) with pred.key < key <= curr.key, unlinking
// any marked nodes it passes (Harris's search).
func (l *HarrisList) search(x machine.API, key uint64) (pred, curr mem.Addr) {
retry:
	for {
		pred = l.head
		curr = mem.Addr(unmark(x.Load(pred + hlNext)))
		for {
			// Skip over marked (logically deleted) successors,
			// snipping them out.
			succ := x.Load(curr + hlNext)
			for marked(succ) {
				if !x.CAS(pred+hlNext, uint64(curr), unmark(succ)) {
					continue retry
				}
				curr = mem.Addr(unmark(succ))
				succ = x.Load(curr + hlNext)
			}
			if x.Load(curr+hlKey) >= key {
				return pred, curr
			}
			pred = curr
			curr = mem.Addr(unmark(succ))
		}
	}
}

// Insert adds key, reporting whether it was absent. The insert path is
// deliberately lease-free: under search-heavy workloads a lease on the
// predecessor — a node every passing traversal reads — costs more in
// deferred searches than the rare CAS retry it prevents (measured in
// EXPERIMENTS.md). The lease placement lives on Remove's unlink instead.
func (l *HarrisList) Insert(x machine.API, key uint64) bool {
	node := mem.Addr(0)
	for {
		pred, curr := l.search(x, key)
		if x.Load(curr+hlKey) == key {
			return false
		}
		if node == 0 {
			node = x.Alloc(hlSize)
			x.Store(node+hlKey, key)
		}
		x.Store(node+hlNext, uint64(curr))
		if x.CAS(pred+hlNext, uint64(curr), uint64(node)) {
			return true
		}
	}
}

// Remove deletes key, reporting whether it was present. The victim is
// first marked, then unlinked (by us or by a later search). The victim
// itself is deliberately never leased: it stays on the traversal path
// until unlinked, so a lease on it would stall every passing search
// (the §7 "improper use" trap; see EXPERIMENTS.md).
func (l *HarrisList) Remove(x machine.API, key uint64) bool {
	for {
		pred, curr := l.search(x, key)
		if x.Load(curr+hlKey) != key {
			return false
		}
		succ := x.Load(curr + hlNext)
		if marked(succ) {
			continue // someone else is deleting it; re-search
		}
		if !x.CAS(curr+hlNext, succ, succ|markBit) {
			continue
		}
		// Try to unlink eagerly; on failure a search will finish it.
		if l.leaseTime > 0 {
			x.Lease(pred, l.leaseTime)
		}
		x.CAS(pred+hlNext, uint64(curr), unmark(succ))
		if l.leaseTime > 0 {
			x.Release(pred)
		}
		return true
	}
}

// Contains reports key membership without writing.
func (l *HarrisList) Contains(x machine.API, key uint64) bool {
	curr := mem.Addr(unmark(x.Load(l.head + hlNext)))
	for x.Load(curr+hlKey) < key {
		curr = mem.Addr(unmark(x.Load(curr + hlNext)))
	}
	return x.Load(curr+hlKey) == key && !marked(x.Load(curr+hlNext))
}

// CheckInvariants validates sortedness and that no marked node is
// reachable on a quiescent list (test oracle).
func (l *HarrisList) CheckInvariants(x machine.API) error {
	prev := uint64(0)
	for curr := mem.Addr(unmark(x.Load(l.head + hlNext))); curr != l.tail; {
		k := x.Load(curr + hlKey)
		if k <= prev {
			return errOutOfOrder
		}
		prev = k
		curr = mem.Addr(unmark(x.Load(curr + hlNext)))
	}
	return nil
}

// Len counts unmarked reachable nodes (test oracle).
func (l *HarrisList) Len(x machine.API) int {
	n := 0
	for curr := mem.Addr(unmark(x.Load(l.head + hlNext))); curr != l.tail; {
		if !marked(x.Load(curr + hlNext)) {
			n++
		}
		curr = mem.Addr(unmark(x.Load(curr + hlNext)))
	}
	return n
}
