package ds

import (
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
)

// BST is a leaf-oriented (external) binary search tree with per-node locks
// and mark-based validation: searches are lock-free; an insert locks the
// parent, a delete locks grandparent and parent (always ancestor before
// descendant, so lock ordering is acyclic). It stands in for the paper's
// low-contention tree baselines [31] (see DESIGN.md substitution 3).
//
// With a lease time > 0 the locked nodes' lines are leased for the update
// window (the low-contention lease placement of §7). Keys must lie in
// [1, 2^64-3]; the two largest values are infinity sentinels.
type BST struct {
	root      mem.Addr // internal sentinel (key = inf2)
	leaseTime uint64
}

const (
	bstKey    = 0
	bstIsLeaf = 8
	bstLeft   = 16
	bstRight  = 24
	bstLock   = 32
	bstMarked = 40
	bstSize   = 48

	inf1 = ^uint64(0) - 1
	inf2 = ^uint64(0)
)

// NewBST allocates the sentinel skeleton: root(inf2) with children
// leaf(inf1) and leaf(inf2).
func NewBST(x machine.API, lease uint64) *BST {
	t := &BST{root: x.Alloc(bstSize), leaseTime: lease}
	l1 := x.Alloc(bstSize)
	l2 := x.Alloc(bstSize)
	x.Store(l1+bstKey, inf1)
	x.Store(l1+bstIsLeaf, 1)
	x.Store(l2+bstKey, inf2)
	x.Store(l2+bstIsLeaf, 1)
	x.Store(t.root+bstKey, inf2)
	x.Store(t.root+bstLeft, uint64(l1))
	x.Store(t.root+bstRight, uint64(l2))
	return t
}

func (t *BST) newLeaf(x machine.API, key uint64) mem.Addr {
	n := x.Alloc(bstSize)
	x.Store(n+bstKey, key)
	x.Store(n+bstIsLeaf, 1)
	return n
}

// childField returns the address of the parent's pointer slot that a
// search for key follows.
func childField(x machine.API, parent mem.Addr, key uint64) mem.Addr {
	if key < x.Load(parent+bstKey) {
		return parent + bstLeft
	}
	return parent + bstRight
}

// find walks to the leaf for key, returning grandparent, parent, and leaf.
func (t *BST) find(x machine.API, key uint64) (gparent, parent, leaf mem.Addr) {
	gparent = 0
	parent = t.root
	leaf = mem.Addr(x.Load(childField(x, parent, key)))
	for x.Load(leaf+bstIsLeaf) == 0 {
		gparent = parent
		parent = leaf
		leaf = mem.Addr(x.Load(childField(x, leaf, key)))
	}
	return gparent, parent, leaf
}

// lockNode spin-acquires a node's lock, leasing the node line only once
// the lock is won (see LazySkipList.lockNode for the rationale).
func (t *BST) lockNode(x machine.API, n mem.Addr) {
	for {
		if x.Load(n+bstLock) == 0 && x.Swap(n+bstLock, 1) == 0 {
			if t.leaseTime > 0 {
				x.Lease(n, t.leaseTime)
			}
			return
		}
		x.Work(8)
	}
}

func (t *BST) unlockNode(x machine.API, n mem.Addr) {
	x.Store(n+bstLock, 0)
	if t.leaseTime > 0 {
		x.Release(n)
	}
}

// Insert adds key, reporting whether it was absent.
func (t *BST) Insert(x machine.API, key uint64) bool {
	for {
		_, parent, leaf := t.find(x, key)
		if x.Load(leaf+bstKey) == key {
			return false
		}
		t.lockNode(x, parent)
		slot := childField(x, parent, key)
		if x.Load(parent+bstMarked) != 0 || mem.Addr(x.Load(slot)) != leaf {
			t.unlockNode(x, parent)
			continue // structure changed underneath; retry
		}
		// Replace leaf by internal(max) with {leaf, newLeaf} ordered.
		newLeaf := t.newLeaf(x, key)
		internal := x.Alloc(bstSize)
		leafKey := x.Load(leaf + bstKey)
		if key < leafKey {
			x.Store(internal+bstKey, leafKey)
			x.Store(internal+bstLeft, uint64(newLeaf))
			x.Store(internal+bstRight, uint64(leaf))
		} else {
			x.Store(internal+bstKey, key)
			x.Store(internal+bstLeft, uint64(leaf))
			x.Store(internal+bstRight, uint64(newLeaf))
		}
		x.Store(slot, uint64(internal))
		t.unlockNode(x, parent)
		return true
	}
}

// Remove deletes key, reporting whether it was present. The parent
// internal node is spliced out and marked.
func (t *BST) Remove(x machine.API, key uint64) bool {
	for {
		gparent, parent, leaf := t.find(x, key)
		if x.Load(leaf+bstKey) != key {
			return false
		}
		if gparent == 0 {
			// key's leaf hangs directly off the root sentinel; the
			// sentinel structure guarantees this only happens for
			// sentinel keys, which are never deleted.
			return false
		}
		t.lockNode(x, gparent)
		t.lockNode(x, parent)
		gslot := childField(x, gparent, key)
		pslot := childField(x, parent, key)
		valid := x.Load(gparent+bstMarked) == 0 &&
			x.Load(parent+bstMarked) == 0 &&
			mem.Addr(x.Load(gslot)) == parent &&
			mem.Addr(x.Load(pslot)) == leaf
		if !valid {
			t.unlockNode(x, parent)
			t.unlockNode(x, gparent)
			continue
		}
		// Splice: grandparent adopts the sibling; parent is retired.
		var sibling uint64
		if pslot == parent+bstLeft {
			sibling = x.Load(parent + bstRight)
		} else {
			sibling = x.Load(parent + bstLeft)
		}
		x.Store(parent+bstMarked, 1)
		x.Store(gslot, sibling)
		t.unlockNode(x, parent)
		t.unlockNode(x, gparent)
		return true
	}
}

// Contains reports key membership (lock-free traversal).
func (t *BST) Contains(x machine.API, key uint64) bool {
	_, _, leaf := t.find(x, key)
	return x.Load(leaf+bstKey) == key
}

// Keys returns all live keys in order (test oracle; quiescent use only).
func (t *BST) Keys(x machine.API) []uint64 {
	var out []uint64
	var walk func(n mem.Addr)
	walk = func(n mem.Addr) {
		if x.Load(n+bstIsLeaf) == 1 {
			if k := x.Load(n + bstKey); k < inf1 {
				out = append(out, k)
			}
			return
		}
		walk(mem.Addr(x.Load(n + bstLeft)))
		walk(mem.Addr(x.Load(n + bstRight)))
	}
	walk(t.root)
	return out
}

// CheckInvariants validates the external-BST ordering property on a
// quiescent tree (test oracle).
func (t *BST) CheckInvariants(x machine.API) error {
	keys := t.Keys(x)
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return errOutOfOrder
		}
	}
	return nil
}
