// Package stm implements TL2-lite, a compact version of the TL2 software
// transactional memory [11] sufficient for the paper's Figure 4/5
// transactional benchmark: write transactions over small sets of
// transactional objects, with versioned write-locks and a global version
// clock. Lease modes reproduce the paper's variants: no leases, hardware
// MultiLease on the lock words, the software MultiLease emulation, and a
// single lease on the first object only.
package stm

import (
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
)

// LeaseMode selects how a transaction protects its lock acquisitions.
type LeaseMode int

const (
	// NoLease is the base TL2: try-lock both objects, abort on failure.
	NoLease LeaseMode = iota
	// HWMulti jointly leases all lock words via hardware MultiLease
	// before acquiring.
	HWMulti
	// SWMulti uses the software MultiLease emulation (§4).
	SWMulti
	// SingleFirst leases only the first (lowest-address) lock word —
	// the paper's "leasing just the lock associated to the first object".
	SingleFirst
)

// TL2 is a fixed set of transactional objects plus the global version
// clock. Each object occupies its own cache line: [versioned-lock, value].
// The versioned lock's low bit is the lock flag; the upper bits hold the
// version.
type TL2 struct {
	clock mem.Addr
	objs  []mem.Addr
	// Mode selects the lease strategy for lock acquisition.
	Mode LeaseMode
	// LeaseTime bounds leases taken by transactions (0 disables leases
	// regardless of Mode).
	LeaseTime uint64
}

const (
	objLock  = 0
	objValue = 8

	lockBit = 1
)

// New allocates nObjs transactional objects and the global clock.
func New(x machine.API, nObjs int, leaseTime uint64) *TL2 {
	t := &TL2{clock: x.Alloc(8), LeaseTime: leaseTime}
	for i := 0; i < nObjs; i++ {
		t.objs = append(t.objs, x.Alloc(16))
	}
	return t
}

// Read returns an object's value outside any transaction (test oracle).
func (t *TL2) Read(x machine.API, i int) uint64 {
	return x.Load(t.objs[i] + objValue)
}

// tryLockObj CAS-acquires an object's versioned lock, returning the
// pre-lock version word and success.
func (t *TL2) tryLockObj(x machine.API, o mem.Addr) (uint64, bool) {
	v := x.Load(o + objLock)
	if v&lockBit != 0 {
		return v, false
	}
	return v, x.CAS(o+objLock, v, v|lockBit)
}

// UpdatePair runs one TL2 write transaction adding delta to objects i and
// j (i != j): sample the clock, read both values, acquire both versioned
// locks, validate versions, write, and release with a new version. It
// returns the number of aborts incurred before the commit.
func (t *TL2) UpdatePair(x machine.API, i, j int, delta uint64) (aborts int) {
	oi, oj := t.objs[i], t.objs[j]
	for {
		t.leaseFor(x, oi, oj)
		rv := x.Load(t.clock)

		// Version first, value second: the commit-time check that the
		// lock word still equals the pre-read version then guarantees
		// the value cannot have changed in between.
		veri := x.Load(oi + objLock)
		vi := x.Load(oi + objValue)
		verj := x.Load(oj + objLock)
		vj := x.Load(oj + objValue)
		if veri&lockBit != 0 || verj&lockBit != 0 ||
			veri>>1 > rv || verj>>1 > rv {
			t.releaseLeases(x)
			aborts++
			t.backoff(x, aborts)
			continue
		}

		// Acquisition phase: try-lock both; abort on any failure.
		pvi, ok := t.tryLockObj(x, oi)
		if !ok {
			t.releaseLeases(x)
			aborts++
			t.backoff(x, aborts)
			continue
		}
		pvj, ok := t.tryLockObj(x, oj)
		if !ok {
			x.Store(oi+objLock, pvi) // restore
			t.releaseLeases(x)
			aborts++
			t.backoff(x, aborts)
			continue
		}
		// Validate: versions unchanged since our reads.
		if pvi != veri || pvj != verj {
			x.Store(oi+objLock, pvi)
			x.Store(oj+objLock, pvj)
			t.releaseLeases(x)
			aborts++
			t.backoff(x, aborts)
			continue
		}

		wv := x.FetchAdd(t.clock, 1) + 1
		x.Store(oi+objValue, vi+delta)
		x.Store(oj+objValue, vj+delta)
		// Release locks, publishing the new version.
		x.Store(oi+objLock, wv<<1)
		x.Store(oj+objLock, wv<<1)
		t.releaseLeases(x)
		return aborts
	}
}

// leaseFor takes the mode-appropriate leases on the two objects' lock
// lines.
func (t *TL2) leaseFor(x machine.API, oi, oj mem.Addr) {
	if t.LeaseTime == 0 {
		return
	}
	switch t.Mode {
	case HWMulti:
		x.MultiLease(t.LeaseTime, oi, oj)
	case SWMulti:
		x.SoftMultiLease(t.LeaseTime, oi, oj)
	case SingleFirst:
		first := oi
		if oj < oi {
			first = oj
		}
		x.Lease(first, t.LeaseTime)
	}
}

func (t *TL2) releaseLeases(x machine.API) {
	if t.LeaseTime > 0 && t.Mode != NoLease {
		x.ReleaseAll()
	}
}

// backoff pauses briefly after an abort (bounded exponential).
func (t *TL2) backoff(x machine.API, aborts int) {
	p := uint64(16)
	for i := 0; i < aborts && p < 1024; i++ {
		p *= 2
	}
	x.Work(x.Rand().Uint64n(p))
}
