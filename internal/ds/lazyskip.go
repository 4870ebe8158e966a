package ds

import (
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
)

// LazySkipList is a concurrent skiplist set with fine-grained per-node
// locks and lazy (mark-then-unlink) deletion, after Herlihy & Shavit's
// LazySkipList. It stands in for the paper's fine-grained-locking skiplist
// baselines: Pugh's locking skiplist under the Lotan–Shavit priority queue
// (via DeleteMin) and the skiplist of the low-contention suite (see
// DESIGN.md substitution 3).
//
// Keys must lie in [1, 2^64-2]. Searches are wait-free; updates lock the
// affected predecessor towers and validate.
type LazySkipList struct {
	head mem.Addr
	tail mem.Addr
	// leaseTime, when nonzero, leases the bottom-level predecessor while
	// its lock is held (the §7 low-contention lease placement). Two
	// placements turned out to be anti-patterns and are deliberately NOT
	// leased: tall routing predecessors (their lease defers every
	// traversal through them) and the removal victim (it stays linked on
	// the traversal path until unlinked, so its lease stalls all passing
	// searches). See EXPERIMENTS.md.
	leaseTime uint64
}

const (
	lskMaxLevel = 12

	lskKey         = 0
	lskLock        = 8
	lskMarked      = 16
	lskFullyLinked = 24
	lskTopLevel    = 32
	lskNext        = 40 // next[level] at lskNext + 8*level
)

func lskNodeSize() uint64 { return lskNext + 8*lskMaxLevel }

// NewLazySkipList allocates an empty set.
func NewLazySkipList(x machine.API, lease uint64) *LazySkipList {
	s := &LazySkipList{head: x.Alloc(lskNodeSize()), tail: x.Alloc(lskNodeSize()), leaseTime: lease}
	x.Store(s.head+lskKey, 0)
	x.Store(s.tail+lskKey, ^uint64(0))
	x.Store(s.head+lskTopLevel, lskMaxLevel-1)
	x.Store(s.tail+lskTopLevel, lskMaxLevel-1)
	x.Store(s.head+lskFullyLinked, 1)
	x.Store(s.tail+lskFullyLinked, 1)
	for l := 0; l < lskMaxLevel; l++ {
		x.Store(s.head+lskNext+mem.Addr(8*l), uint64(s.tail))
	}
	return s
}

func (s *LazySkipList) next(x machine.API, n mem.Addr, level int) mem.Addr {
	return mem.Addr(x.Load(n + lskNext + mem.Addr(8*level)))
}

// lockNode spin-acquires a node's lock. With leases enabled and
// lease=true, the node line is leased only once the lock is won (so the
// update window and the unlock store stay local). Only the bottom-level
// predecessor (where linking happens) is leased — leasing tall routing
// nodes would defer every traversal through them, the kind of improper
// use §7 warns about.
func (s *LazySkipList) lockNode(x machine.API, n mem.Addr, lease bool) {
	for {
		if x.Load(n+lskLock) == 0 && x.Swap(n+lskLock, 1) == 0 {
			if lease && s.leaseTime > 0 {
				x.Lease(n, s.leaseTime)
			}
			return
		}
		x.Work(8)
	}
}

func (s *LazySkipList) unlockNode(x machine.API, n mem.Addr) {
	x.Store(n+lskLock, 0)
	if s.leaseTime > 0 {
		x.Release(n) // no-op unless this node's line was leased
	}
}

// find locates key's predecessors and successors per level. It returns the
// highest level at which key was found, or -1.
func (s *LazySkipList) find(x machine.API, key uint64, preds, succs *[lskMaxLevel]mem.Addr) int {
	lFound := -1
	pred := s.head
	for level := lskMaxLevel - 1; level >= 0; level-- {
		curr := s.next(x, pred, level)
		for x.Load(curr+lskKey) < key {
			pred = curr
			curr = s.next(x, pred, level)
		}
		if lFound == -1 && x.Load(curr+lskKey) == key {
			lFound = level
		}
		preds[level] = pred
		succs[level] = curr
	}
	return lFound
}

// Insert adds key to the set, reporting whether it was absent.
func (s *LazySkipList) Insert(x machine.API, key uint64) bool {
	topLevel := randomLevel(x, lskMaxLevel) - 1
	var preds, succs [lskMaxLevel]mem.Addr
	for {
		lFound := s.find(x, key, &preds, &succs)
		if lFound != -1 {
			nodeFound := succs[lFound]
			if x.Load(nodeFound+lskMarked) == 0 {
				linked := nodeFound + lskFullyLinked // wait for the in-flight insert to link
				for u := x.Load(linked); u == 0; u = x.Spin(linked, u, 8) {
				}
				return false
			}
			continue // marked: being removed, retry
		}
		// Lock predecessors bottom-up and validate.
		highest := -1
		valid := true
		for level := 0; valid && level <= topLevel; level++ {
			pred, succ := preds[level], succs[level]
			if level == 0 || preds[level-1] != pred {
				s.lockNode(x, pred, level == 0)
			}
			highest = level
			valid = x.Load(pred+lskMarked) == 0 &&
				x.Load(succ+lskMarked) == 0 &&
				s.next(x, pred, level) == succ
		}
		if !valid {
			s.unlockPreds(x, &preds, highest)
			continue
		}
		node := x.Alloc(lskNodeSize())
		x.Store(node+lskKey, key)
		x.Store(node+lskTopLevel, uint64(topLevel))
		for level := 0; level <= topLevel; level++ {
			x.Store(node+lskNext+mem.Addr(8*level), uint64(succs[level]))
		}
		for level := 0; level <= topLevel; level++ {
			x.Store(preds[level]+lskNext+mem.Addr(8*level), uint64(node))
		}
		x.Store(node+lskFullyLinked, 1)
		s.unlockPreds(x, &preds, highest)
		return true
	}
}

// unlockPreds unlocks preds[0..highest], skipping duplicates.
func (s *LazySkipList) unlockPreds(x machine.API, preds *[lskMaxLevel]mem.Addr, highest int) {
	for level := highest; level >= 0; level-- {
		if level == highest || preds[level] != preds[level+1] {
			s.unlockNode(x, preds[level])
		}
	}
}

// Remove deletes key from the set, reporting whether it was present.
func (s *LazySkipList) Remove(x machine.API, key uint64) bool {
	var preds, succs [lskMaxLevel]mem.Addr
	victim := mem.Addr(0)
	isMarked := false
	topLevel := -1
	for {
		lFound := s.find(x, key, &preds, &succs)
		if lFound != -1 {
			victim = succs[lFound]
		}
		if !isMarked {
			if lFound == -1 {
				return false
			}
			if x.Load(victim+lskFullyLinked) == 0 ||
				x.Load(victim+lskMarked) != 0 ||
				int(x.Load(victim+lskTopLevel)) != lFound {
				return false
			}
			topLevel = int(x.Load(victim + lskTopLevel))
			s.lockNode(x, victim, false) // leasing the victim would stall traversals through it
			if x.Load(victim+lskMarked) != 0 {
				s.unlockNode(x, victim)
				return false
			}
			x.Store(victim+lskMarked, 1)
			isMarked = true
		}
		highest := -1
		valid := true
		for level := 0; valid && level <= topLevel; level++ {
			pred := preds[level]
			if level == 0 || preds[level-1] != pred {
				s.lockNode(x, pred, level == 0)
			}
			highest = level
			valid = x.Load(pred+lskMarked) == 0 && s.next(x, pred, level) == victim
		}
		if !valid {
			s.unlockPreds(x, &preds, highest)
			continue
		}
		for level := topLevel; level >= 0; level-- {
			x.Store(preds[level]+lskNext+mem.Addr(8*level),
				uint64(s.next(x, victim, level)))
		}
		s.unlockNode(x, victim)
		s.unlockPreds(x, &preds, highest)
		return true
	}
}

// Contains reports key membership (wait-free).
func (s *LazySkipList) Contains(x machine.API, key uint64) bool {
	var preds, succs [lskMaxLevel]mem.Addr
	lFound := s.find(x, key, &preds, &succs)
	return lFound != -1 &&
		x.Load(succs[lFound]+lskFullyLinked) == 1 &&
		x.Load(succs[lFound]+lskMarked) == 0
}

// DeleteMin implements the Lotan–Shavit priority-queue removal [23]: scan
// the bottom level for the first live node and logically-then-physically
// delete it; on a race, advance to the next candidate.
func (s *LazySkipList) DeleteMin(x machine.API) (uint64, bool) {
	curr := s.next(x, s.head, 0)
	for curr != s.tail {
		k := x.Load(curr + lskKey)
		if x.Load(curr+lskMarked) == 0 && x.Load(curr+lskFullyLinked) == 1 {
			if s.Remove(x, k) {
				return k, true
			}
		}
		curr = s.next(x, curr, 0)
	}
	return 0, false
}

// CheckInvariants validates bottom-level sortedness and tower consistency
// (untimed oracle for tests; call with machine.Direct on a quiescent list).
func (s *LazySkipList) CheckInvariants(x machine.API) error {
	prev := uint64(0)
	for curr := s.next(x, s.head, 0); curr != s.tail; curr = s.next(x, curr, 0) {
		k := x.Load(curr + lskKey)
		if k <= prev {
			return errOutOfOrder
		}
		prev = k
		top := int(x.Load(curr + lskTopLevel))
		for l := 0; l <= top; l++ {
			if s.next(x, curr, l) == 0 {
				return errBrokenTower
			}
		}
	}
	return nil
}

// Len counts live elements (test oracle).
func (s *LazySkipList) Len(x machine.API) int {
	n := 0
	for curr := s.next(x, s.head, 0); curr != s.tail; curr = s.next(x, curr, 0) {
		if x.Load(curr+lskMarked) == 0 {
			n++
		}
	}
	return n
}
