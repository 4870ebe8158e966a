package ds

import (
	"leaserelease/internal/locks"
	"leaserelease/internal/machine"
)

// PQ is the priority-queue surface of the Figure 3 benchmark: smaller key
// = higher priority.
type PQ interface {
	Insert(x machine.API, key uint64)
	DeleteMin(x machine.API) (uint64, bool)
}

// PQFine is the baseline Lotan–Shavit priority queue [23] over the
// fine-grained-locking skiplist (see DESIGN.md substitution 3 for the
// Pugh-skiplist mapping).
type PQFine struct {
	s *LazySkipList
}

// NewPQFine allocates the baseline priority queue.
func NewPQFine(x machine.API) *PQFine {
	return &PQFine{s: NewLazySkipList(x, 0)}
}

// Insert adds key; a concurrent duplicate is disambiguated by probing
// upward (duplicates are vanishingly rare with wide random keys).
func (p *PQFine) Insert(x machine.API, key uint64) {
	for !p.s.Insert(x, key) {
		key++
	}
}

// DeleteMin removes and returns the highest-priority key.
func (p *PQFine) DeleteMin(x machine.API) (uint64, bool) {
	return p.s.DeleteMin(x)
}

// Len is a test oracle.
func (p *PQFine) Len(x machine.API) int { return p.s.Len(x) }

// PQGlobal is the paper's lease-based priority queue: a sequential
// skiplist protected by one global try-lock, with the lock variable leased
// for the critical section (§6 "Leases for TryLocks"). With LeaseTime = 0
// it degrades to a plain global-lock queue (an additional baseline).
type PQGlobal struct {
	lock locks.TryLock
	s    *SeqSkipList
}

// NewPQGlobal allocates the global-lock priority queue. leaseTime > 0
// wraps the lock in the §6 leased pattern.
func NewPQGlobal(x machine.API, leaseTime uint64) *PQGlobal {
	var l locks.TryLock = locks.NewTTS(x)
	if leaseTime > 0 {
		l = locks.NewLeased(l, leaseTime)
	}
	return &PQGlobal{lock: l, s: NewSeqSkipList(x)}
}

// Insert adds key under the global lock.
func (p *PQGlobal) Insert(x machine.API, key uint64) {
	p.lock.Lock(x)
	p.s.Insert(x, key, 0)
	p.lock.Unlock(x)
}

// DeleteMin removes the smallest key under the global lock.
func (p *PQGlobal) DeleteMin(x machine.API) (uint64, bool) {
	p.lock.Lock(x)
	k, ok := p.s.DeleteMin(x)
	p.lock.Unlock(x)
	return k, ok
}

// Len is a test oracle.
func (p *PQGlobal) Len(x machine.API) int { return p.s.Len(x) }
