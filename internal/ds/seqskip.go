package ds

import (
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
)

// SeqSkipList is a sequential skiplist on simulated memory, used under a
// single (leased) global lock — the paper's lease-based Lotan–Shavit
// priority queue "relies on a global lock" over a sequential structure.
// Keys must lie in [1, 2^64-2]; smaller key = higher priority.
type SeqSkipList struct {
	head mem.Addr
	tail mem.Addr
}

const (
	seqMaxLevel = 16

	sskKey   = 0
	sskValue = 8
	sskNext  = 16 // next[level] at sskNext + 8*level
)

func seqNodeSize() uint64 { return sskNext + 8*seqMaxLevel }

// NewSeqSkipList allocates an empty list with head/tail sentinels.
func NewSeqSkipList(x machine.API) *SeqSkipList {
	s := &SeqSkipList{head: x.Alloc(seqNodeSize()), tail: x.Alloc(seqNodeSize())}
	x.Store(s.head+sskKey, 0)
	x.Store(s.tail+sskKey, ^uint64(0))
	for l := 0; l < seqMaxLevel; l++ {
		x.Store(s.head+sskNext+mem.Addr(8*l), uint64(s.tail))
	}
	return s
}

// randomLevel draws a geometric tower height from the thread's RNG.
func randomLevel(x machine.API, max int) int {
	lvl := 1
	for lvl < max && x.Rand().Next()&3 == 0 { // p = 1/4
		lvl++
	}
	return lvl
}

// Insert adds key with value v (duplicates allowed for PQ use; a duplicate
// key lands adjacent to its twins).
func (s *SeqSkipList) Insert(x machine.API, key, v uint64) {
	var preds [seqMaxLevel]mem.Addr
	p := s.head
	for l := seqMaxLevel - 1; l >= 0; l-- {
		for {
			n := mem.Addr(x.Load(p + sskNext + mem.Addr(8*l)))
			if x.Load(n+sskKey) < key {
				p = n
				continue
			}
			break
		}
		preds[l] = p
	}
	top := randomLevel(x, seqMaxLevel)
	node := x.Alloc(seqNodeSize())
	x.Store(node+sskKey, key)
	x.Store(node+sskValue, v)
	for l := 0; l < top; l++ {
		next := x.Load(preds[l] + sskNext + mem.Addr(8*l))
		x.Store(node+sskNext+mem.Addr(8*l), next)
		x.Store(preds[l]+sskNext+mem.Addr(8*l), uint64(node))
	}
}

// DeleteMin removes and returns the smallest key; ok=false when empty.
func (s *SeqSkipList) DeleteMin(x machine.API) (key uint64, ok bool) {
	first := mem.Addr(x.Load(s.head + sskNext))
	if first == s.tail {
		return 0, false
	}
	key = x.Load(first + sskKey)
	for l := 0; l < seqMaxLevel; l++ {
		if mem.Addr(x.Load(s.head+sskNext+mem.Addr(8*l))) == first {
			x.Store(s.head+sskNext+mem.Addr(8*l), x.Load(first+sskNext+mem.Addr(8*l)))
		}
	}
	return key, true
}

// Len counts elements via the bottom level (test oracle).
func (s *SeqSkipList) Len(x machine.API) int {
	n := 0
	for p := mem.Addr(x.Load(s.head + sskNext)); p != s.tail; p = mem.Addr(x.Load(p + sskNext)) {
		n++
	}
	return n
}
