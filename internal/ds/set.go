package ds

import "leaserelease/internal/machine"

// Set is the interface of the §7 low-contention suite. Each operation
// reports whether it changed (Insert, Remove) or found (Contains) key.
type Set interface {
	Insert(x machine.API, key uint64) bool
	Remove(x machine.API, key uint64) bool
	Contains(x machine.API, key uint64) bool
}

// SetDecl is one set of the suite.
type SetDecl struct {
	Name  string // the leasesim -ds value
	Title string // the row label in text-lowcontention
	// New allocates the set (lease 0 = base); only hash tables read buckets.
	New func(x machine.API, lease uint64, buckets int) Set
}

// Sets declares the suite, lock-based sets first. (A function, like
// bench.Structures: a table would link every set into every importer.)
func Sets() []SetDecl {
	return []SetDecl{
		{"harris", "harris-list", func(x machine.API, lease uint64, _ int) Set { return NewHarrisList(x, lease) }},
		{"skiplist", "skiplist", func(x machine.API, lease uint64, _ int) Set { return NewLazySkipList(x, lease) }},
		{"bst", "bst", func(x machine.API, lease uint64, _ int) Set { return NewBST(x, lease) }},
		{"hash", "hashtable", func(x machine.API, lease uint64, buckets int) Set { return NewHashSet(x, buckets, lease) }},
		{"lfskip", "lf-skiplist", func(x machine.API, lease uint64, _ int) Set { return NewLFSkipList(x, lease) }},
		{"lfbst", "lf-bst", func(x machine.API, lease uint64, _ int) Set { return NewNMTree(x, lease) }},
		{"lfhash", "lf-hashtable", func(x machine.API, lease uint64, buckets int) Set { return NewMichaelHashMap(x, buckets, lease) }},
	}
}

// hashSet is a HashMap holding each key as its own value.
type hashSet struct{ h *HashMap }

// NewHashSet allocates a striped-lock hash table (NewHashMap) as a Set.
func NewHashSet(x machine.API, buckets int, lease uint64) Set {
	return hashSet{NewHashMap(x, buckets, lease)}
}

func (s hashSet) Insert(x machine.API, key uint64) bool   { return s.h.Put(x, key, key) }
func (s hashSet) Remove(x machine.API, key uint64) bool   { return s.h.Delete(x, key) }
func (s hashSet) Contains(x machine.API, key uint64) bool { _, ok := s.h.Get(x, key); return ok }
