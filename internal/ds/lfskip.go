package ds

import (
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
)

// LFSkipList is a lock-free skiplist set in the Fraser / Herlihy–Shavit
// style (the paper's skiplist baseline [15]): towers of markable next
// pointers, logical deletion by marking every level top-down, physical
// unlinking by the find routine. Keys must lie in [1, 2^64-2].
//
// With LeaseTime > 0 the bottom-level predecessor is leased around the
// linking/unlinking CAS windows — the paper's predecessor-lease placement
// for linear structures.
type LFSkipList struct {
	head mem.Addr
	tail mem.Addr
	// LeaseTime enables the predecessor lease (0 = base).
	LeaseTime uint64
}

const (
	lfsMaxLevel = 12

	lfsKey  = 0
	lfsTop  = 8
	lfsNext = 16 // markable next[level] at lfsNext + 8*level
)

func lfsNodeSize() uint64 { return lfsNext + 8*lfsMaxLevel }

// NewLFSkipList allocates an empty set.
func NewLFSkipList(x machine.API, lease uint64) *LFSkipList {
	s := &LFSkipList{head: x.Alloc(lfsNodeSize()), tail: x.Alloc(lfsNodeSize()), LeaseTime: lease}
	x.Store(s.head+lfsKey, 0)
	x.Store(s.tail+lfsKey, ^uint64(0))
	x.Store(s.head+lfsTop, lfsMaxLevel-1)
	x.Store(s.tail+lfsTop, lfsMaxLevel-1)
	for l := 0; l < lfsMaxLevel; l++ {
		x.Store(s.head+lfsNext+mem.Addr(8*l), uint64(s.tail))
	}
	return s
}

func lfsNextField(n mem.Addr, level int) mem.Addr { return n + lfsNext + mem.Addr(8*level) }

// find locates key's unmarked predecessors and successors per level,
// snipping out marked nodes as it goes. It reports whether an unmarked
// node with the key sits at the bottom level.
func (s *LFSkipList) find(x machine.API, key uint64, preds, succs *[lfsMaxLevel]mem.Addr) bool {
retry:
	for {
		pred := s.head
		for level := lfsMaxLevel - 1; level >= 0; level-- {
			curr := mem.Addr(unmark(x.Load(lfsNextField(pred, level))))
			for {
				succ := x.Load(lfsNextField(curr, level))
				for marked(succ) {
					// curr is logically deleted at this level: snip it.
					if !x.CAS(lfsNextField(pred, level), uint64(curr), unmark(succ)) {
						continue retry
					}
					curr = mem.Addr(unmark(succ))
					succ = x.Load(lfsNextField(curr, level))
				}
				if x.Load(curr+lfsKey) < key {
					pred = curr
					curr = mem.Addr(unmark(succ))
					continue
				}
				break
			}
			preds[level] = pred
			succs[level] = curr
		}
		return x.Load(succs[0]+lfsKey) == key
	}
}

// Insert adds key, reporting whether it was absent.
func (s *LFSkipList) Insert(x machine.API, key uint64) bool {
	topLevel := randomLevel(x, lfsMaxLevel) - 1
	var preds, succs [lfsMaxLevel]mem.Addr
	var node mem.Addr
	for {
		if s.find(x, key, &preds, &succs) {
			return false
		}
		if node == 0 {
			node = x.Alloc(lfsNodeSize())
			x.Store(node+lfsKey, key)
			x.Store(node+lfsTop, uint64(topLevel))
		}
		for level := 0; level <= topLevel; level++ {
			x.Store(lfsNextField(node, level), uint64(succs[level]))
		}
		// Linearize: link at the bottom level.
		if s.LeaseTime > 0 {
			x.Lease(preds[0], s.LeaseTime)
		}
		ok := x.CAS(lfsNextField(preds[0], 0), uint64(succs[0]), uint64(node))
		if s.LeaseTime > 0 {
			x.Release(preds[0])
		}
		if !ok {
			continue
		}
		// Link the upper levels, refreshing preds/succs as needed.
		for level := 1; level <= topLevel; level++ {
			for {
				cur := x.Load(lfsNextField(node, level))
				if marked(cur) {
					return true // concurrently deleted; stop linking
				}
				if mem.Addr(cur) != succs[level] {
					// Our forward pointer went stale after a re-find.
					if !x.CAS(lfsNextField(node, level), cur, uint64(succs[level])) {
						return true // marked under us
					}
				}
				if x.CAS(lfsNextField(preds[level], level), uint64(succs[level]), uint64(node)) {
					break
				}
				s.find(x, key, &preds, &succs)
				if succs[0] != node {
					return true // physically removed already
				}
			}
		}
		return true
	}
}

// Remove deletes key, reporting whether this call logically deleted it.
func (s *LFSkipList) Remove(x machine.API, key uint64) bool {
	var preds, succs [lfsMaxLevel]mem.Addr
	for {
		if !s.find(x, key, &preds, &succs) {
			return false
		}
		victim := succs[0]
		topLevel := int(x.Load(victim + lfsTop))
		// Mark the upper levels top-down.
		for level := topLevel; level >= 1; level-- {
			for {
				succ := x.Load(lfsNextField(victim, level))
				if marked(succ) {
					break
				}
				if x.CAS(lfsNextField(victim, level), succ, succ|markBit) {
					break
				}
			}
		}
		// Linearize: mark the bottom level.
		for {
			succ := x.Load(lfsNextField(victim, 0))
			if marked(succ) {
				return false // another thread won the deletion
			}
			if s.LeaseTime > 0 {
				x.Lease(victim, s.LeaseTime)
			}
			ok := x.CAS(lfsNextField(victim, 0), succ, succ|markBit)
			if s.LeaseTime > 0 {
				x.Release(victim)
			}
			if ok {
				s.find(x, key, &preds, &succs) // physically unlink
				return true
			}
		}
	}
}

// Contains reports key membership (wait-free, no writes).
func (s *LFSkipList) Contains(x machine.API, key uint64) bool {
	pred := s.head
	var curr mem.Addr
	for level := lfsMaxLevel - 1; level >= 0; level-- {
		curr = mem.Addr(unmark(x.Load(lfsNextField(pred, level))))
		for {
			succ := x.Load(lfsNextField(curr, level))
			for marked(succ) {
				curr = mem.Addr(unmark(succ))
				succ = x.Load(lfsNextField(curr, level))
			}
			if x.Load(curr+lfsKey) < key {
				pred = curr
				curr = mem.Addr(unmark(succ))
				continue
			}
			break
		}
	}
	return x.Load(curr+lfsKey) == key && !marked(x.Load(lfsNextField(curr, 0)))
}

// Len counts unmarked bottom-level nodes (test oracle; quiescent only).
func (s *LFSkipList) Len(x machine.API) int {
	n := 0
	curr := mem.Addr(unmark(x.Load(lfsNextField(s.head, 0))))
	for curr != s.tail {
		if !marked(x.Load(lfsNextField(curr, 0))) {
			n++
		}
		curr = mem.Addr(unmark(x.Load(lfsNextField(curr, 0))))
	}
	return n
}

// CheckInvariants validates sortedness at every level and that upper-level
// chains are sub-sequences of the bottom level (test oracle; quiescent
// use only, after marked nodes settle).
func (s *LFSkipList) CheckInvariants(x machine.API) error {
	// Collect live bottom-level keys.
	live := map[uint64]bool{}
	prev := uint64(0)
	curr := mem.Addr(unmark(x.Load(lfsNextField(s.head, 0))))
	for curr != s.tail {
		if !marked(x.Load(lfsNextField(curr, 0))) {
			k := x.Load(curr + lfsKey)
			if k <= prev {
				return errOutOfOrder
			}
			prev = k
			live[k] = true
		}
		curr = mem.Addr(unmark(x.Load(lfsNextField(curr, 0))))
	}
	// Every unmarked node reachable at an upper level must be live.
	for level := 1; level < lfsMaxLevel; level++ {
		prev = 0
		curr = mem.Addr(unmark(x.Load(lfsNextField(s.head, level))))
		for curr != s.tail {
			k := x.Load(curr + lfsKey)
			if !marked(x.Load(lfsNextField(curr, level))) {
				if k <= prev {
					return errOutOfOrder
				}
				prev = k
				if !marked(x.Load(lfsNextField(curr, 0))) && !live[k] {
					return errBrokenTower
				}
			}
			curr = mem.Addr(unmark(x.Load(lfsNextField(curr, level))))
		}
	}
	return nil
}
