package ds

import (
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
)

// NMTree is the lock-free external binary search tree of Natarajan &
// Mittal [31] — the paper's tree baseline. Child-pointer words (edges)
// carry two low bits: FLAG marks the edge to a leaf being deleted (the
// injection point) and TAG freezes the sibling edge during cleanup, so
// that the whole parent chain can be swung off the ancestor with one CAS.
// Updates write only edges; searches are wait-free.
//
// Keys must lie in [1, 2^64-4]; the top three values are the ∞₀<∞₁<∞₂
// sentinels.
type NMTree struct {
	rootR mem.Addr // internal(∞₂)
	rootS mem.Addr // internal(∞₁)
	// leaseTime, when nonzero, leases the parent's line around each
	// update CAS window (the predecessor-lease placement of §7).
	leaseTime uint64
}

const (
	nmKey    = 0
	nmIsLeaf = 8
	nmLeft   = 16
	nmRight  = 24
	nmSize   = 32

	nmInf0 = ^uint64(0) - 2
	nmInf1 = ^uint64(0) - 1
	nmInf2 = ^uint64(0)

	flagBit  = 1
	tagBit   = 2
	edgeBits = flagBit | tagBit
)

func edgeAddr(w uint64) mem.Addr { return mem.Addr(w &^ uint64(edgeBits)) }
func edgeFlagged(w uint64) bool  { return w&flagBit != 0 }
func edgeTagged(w uint64) bool   { return w&tagBit != 0 }

// NewNMTree allocates the sentinel skeleton: R(∞₂){S(∞₁){leaf ∞₀,
// leaf ∞₁}, leaf ∞₂}.
func NewNMTree(x machine.API, lease uint64) *NMTree {
	t := &NMTree{rootR: x.Alloc(nmSize), rootS: x.Alloc(nmSize), leaseTime: lease}
	leaf := func(k uint64) mem.Addr {
		n := x.Alloc(nmSize)
		x.Store(n+nmKey, k)
		x.Store(n+nmIsLeaf, 1)
		return n
	}
	x.Store(t.rootR+nmKey, nmInf2)
	x.Store(t.rootR+nmLeft, uint64(t.rootS))
	x.Store(t.rootR+nmRight, uint64(leaf(nmInf2)))
	x.Store(t.rootS+nmKey, nmInf1)
	x.Store(t.rootS+nmLeft, uint64(leaf(nmInf0)))
	x.Store(t.rootS+nmRight, uint64(leaf(nmInf1)))
	return t
}

// seekRec is the result of a traversal: the deepest untagged edge on the
// path (ancestor → successor) and the final parent → leaf edge.
type seekRec struct {
	ancestor, successor, parent, leaf mem.Addr
}

// edgeField returns the address of node's child-pointer word that a search
// for key follows.
func nmEdgeField(x machine.API, node mem.Addr, key uint64) mem.Addr {
	if key < x.Load(node+nmKey) {
		return node + nmLeft
	}
	return node + nmRight
}

// seek walks from the root to key's leaf, tracking the last untagged edge.
func (t *NMTree) seek(x machine.API, key uint64) seekRec {
	r := seekRec{ancestor: t.rootR, successor: t.rootS, parent: t.rootS}
	pEdge := x.Load(t.rootS + nmLeft)
	cur := edgeAddr(pEdge)
	for x.Load(cur+nmIsLeaf) == 0 {
		if !edgeTagged(pEdge) {
			r.ancestor = r.parent
			r.successor = cur
		}
		r.parent = cur
		pEdge = x.Load(nmEdgeField(x, cur, key))
		cur = edgeAddr(pEdge)
	}
	r.leaf = cur
	return r
}

// Insert adds key, reporting whether it was absent.
func (t *NMTree) Insert(x machine.API, key uint64) bool {
	var node, newLeaf mem.Addr
	for {
		r := t.seek(x, key)
		leafKey := x.Load(r.leaf + nmKey)
		if leafKey == key {
			return false
		}
		if node == 0 {
			newLeaf = x.Alloc(nmSize)
			x.Store(newLeaf+nmKey, key)
			x.Store(newLeaf+nmIsLeaf, 1)
			node = x.Alloc(nmSize)
		}
		if key < leafKey {
			x.Store(node+nmKey, leafKey)
			x.Store(node+nmLeft, uint64(newLeaf))
			x.Store(node+nmRight, uint64(r.leaf))
		} else {
			x.Store(node+nmKey, key)
			x.Store(node+nmLeft, uint64(r.leaf))
			x.Store(node+nmRight, uint64(newLeaf))
		}
		field := nmEdgeField(x, r.parent, key)
		if t.leaseTime > 0 {
			x.Lease(r.parent, t.leaseTime)
		}
		ok := x.CAS(field, uint64(r.leaf), uint64(node))
		if t.leaseTime > 0 {
			x.Release(r.parent)
		}
		if ok {
			return true
		}
		// CAS failed: if the edge to our leaf is flagged, help the
		// pending deletion before retrying.
		cur := x.Load(field)
		if edgeAddr(cur) == r.leaf && edgeFlagged(cur) {
			t.cleanup(x, key, r)
		}
	}
}

// Remove deletes key, reporting whether this call logically deleted it.
func (t *NMTree) Remove(x machine.API, key uint64) bool {
	injecting := true
	var leaf mem.Addr
	for {
		r := t.seek(x, key)
		if !injecting {
			// Cleanup mode: keep helping until our flagged leaf is gone.
			if r.leaf != leaf {
				return true
			}
			if t.cleanup(x, key, r) {
				return true
			}
			continue
		}
		if x.Load(r.leaf+nmKey) != key {
			return false
		}
		field := nmEdgeField(x, r.parent, key)
		old := x.Load(field)
		if edgeAddr(old) != r.leaf {
			continue // path changed underneath; re-seek
		}
		if edgeFlagged(old) || edgeTagged(old) {
			// Another deletion owns this edge; help it along.
			if edgeFlagged(old) {
				t.cleanup(x, key, r)
			}
			continue
		}
		if t.leaseTime > 0 {
			x.Lease(r.parent, t.leaseTime)
		}
		ok := x.CAS(field, old, old|flagBit)
		if t.leaseTime > 0 {
			x.Release(r.parent)
		}
		if ok {
			injecting = false
			leaf = r.leaf
			if t.cleanup(x, key, r) {
				return true
			}
		}
	}
}

// cleanup physically removes the flagged leaf's parent chain: it tags the
// sibling edge (blocking inserts under it) and swings the ancestor's edge
// from the successor to the sibling, preserving the sibling's flag.
// It reports whether the swing succeeded.
func (t *NMTree) cleanup(x machine.API, key uint64, r seekRec) bool {
	ancestorField := nmEdgeField(x, r.ancestor, key)
	var childField, siblingField mem.Addr
	if key < x.Load(r.parent+nmKey) {
		childField, siblingField = r.parent+nmLeft, r.parent+nmRight
	} else {
		childField, siblingField = r.parent+nmRight, r.parent+nmLeft
	}
	if !edgeFlagged(x.Load(childField)) {
		// The flag sits on the other edge: that leaf is the one being
		// deleted, and the search-path child survives as the sibling.
		siblingField = childField
	}
	for {
		sv := x.Load(siblingField)
		if edgeTagged(sv) {
			break
		}
		if x.CAS(siblingField, sv, sv|tagBit) {
			break
		}
	}
	sv := x.Load(siblingField)
	return x.CAS(ancestorField, uint64(r.successor), sv&^uint64(tagBit))
}

// Contains reports key membership (wait-free).
func (t *NMTree) Contains(x machine.API, key uint64) bool {
	cur := edgeAddr(x.Load(t.rootS + nmLeft))
	for x.Load(cur+nmIsLeaf) == 0 {
		cur = edgeAddr(x.Load(nmEdgeField(x, cur, key)))
	}
	return x.Load(cur+nmKey) == key
}

// Keys returns all live keys in order (test oracle; quiescent use only).
func (t *NMTree) Keys(x machine.API) []uint64 {
	var out []uint64
	var walk func(n mem.Addr)
	walk = func(n mem.Addr) {
		if x.Load(n+nmIsLeaf) == 1 {
			if k := x.Load(n + nmKey); k < nmInf0 {
				out = append(out, k)
			}
			return
		}
		walk(edgeAddr(x.Load(n + nmLeft)))
		walk(edgeAddr(x.Load(n + nmRight)))
	}
	walk(t.rootR)
	return out
}

// CheckInvariants validates external-BST ordering and routing keys on a
// quiescent tree (test oracle).
func (t *NMTree) CheckInvariants(x machine.API) error {
	keys := t.Keys(x)
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return errOutOfOrder
		}
	}
	var check func(n mem.Addr, lo, hi uint64) error
	check = func(n mem.Addr, lo, hi uint64) error {
		k := x.Load(n + nmKey)
		if k < lo || k > hi {
			return errOutOfOrder
		}
		if x.Load(n+nmIsLeaf) == 1 {
			return nil
		}
		if err := check(edgeAddr(x.Load(n+nmLeft)), lo, k-1); err != nil {
			return err
		}
		return check(edgeAddr(x.Load(n+nmRight)), k, hi)
	}
	return check(t.rootR, 0, ^uint64(0))
}
