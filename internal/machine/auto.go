package machine

import (
	"leaserelease/internal/mem"
	"leaserelease/internal/sim"
)

// Auto is a prototype of the paper's §8 future work, "automatic lease
// insertion": it wraps a thread's Ctx and learns, per cache line, the
// optimistic load→CAS-same-line pattern that leases protect (§1
// "scan-and-validate"). Once a line's loads are frequently followed by a
// CAS, Auto leases the line before the load and releases right after the
// CAS — with no changes to the data structure code, which is written
// against the plain API.
//
// Auto is advisory, like leases themselves: it can only change timing,
// never results.
type Auto struct {
	c *Ctx

	// LeaseTime is the lease length for inserted leases.
	LeaseTime uint64

	stats map[mem.Line]*autoLineStat
	// loadedSinceCAS tracks lines loaded since the last CAS, so a CAS on
	// a recently-loaded line is recognized as the scan-and-validate
	// pattern even with node-preparation accesses in between.
	loadedSinceCAS map[mem.Line]bool
	leased         mem.Line
	isLeased       bool
	idleOps        uint64 // ops since the leased line was last touched

	// Inserted counts automatically inserted leases.
	Inserted uint64
}

const (
	// autoMinSamples loads must be seen on a line before it can be judged.
	autoMinSamples = 8
	// autoInsertPermille inserts leases once CAS-follows-load exceeds this
	// rate (per thousand loads).
	autoInsertPermille = 300
	// autoIdleLimit drops an inserted lease after this many operations that
	// never touch the leased line (the pattern evidently moved on).
	autoIdleLimit = 16
)

type autoLineStat struct {
	loads    uint64
	casAfter uint64
}

var _ API = (*Auto)(nil)

// NewAuto wraps c; inserted leases last leaseTime cycles.
func NewAuto(c *Ctx, leaseTime uint64) *Auto {
	return &Auto{
		c: c, LeaseTime: leaseTime,
		stats:          make(map[mem.Line]*autoLineStat),
		loadedSinceCAS: make(map[mem.Line]bool),
	}
}

// touch updates the idle counter for the held lease; returns whether the
// op touched the leased line.
func (a *Auto) touch(l mem.Line) {
	if !a.isLeased {
		return
	}
	if l == a.leased {
		a.idleOps = 0
		return
	}
	a.idleOps++
	if a.idleOps > autoIdleLimit {
		a.dropLease()
	}
}

func (a *Auto) stat(l mem.Line) *autoLineStat {
	s, ok := a.stats[l]
	if !ok {
		s = &autoLineStat{}
		a.stats[l] = s
	}
	return s
}

// dropLease releases the inserted lease.
func (a *Auto) dropLease() {
	if a.isLeased {
		a.c.Release(a.leased.Base())
		a.isLeased = false
		a.idleOps = 0
	}
}

// Load learns and, on hot scan-and-validate lines, leases before loading.
// A held inserted lease survives loads of other lines (node reads between
// the scan and the validate), bounded by autoIdleLimit.
func (a *Auto) Load(addr mem.Addr) uint64 {
	l := mem.LineOf(addr)
	s := a.stat(l)
	if !a.isLeased && s.loads >= autoMinSamples &&
		s.casAfter*1000 > s.loads*autoInsertPermille {
		a.c.Lease(addr, a.LeaseTime)
		a.leased, a.isLeased = l, true
		a.Inserted++
	}
	a.touch(l)
	s.loads++
	if len(a.loadedSinceCAS) > 8 {
		for k := range a.loadedSinceCAS {
			delete(a.loadedSinceCAS, k)
		}
	}
	a.loadedSinceCAS[l] = true
	return a.c.Load(addr)
}

// CAS completes a detected pattern: it records CAS-follows-load and
// releases the inserted lease on the CASed line.
func (a *Auto) CAS(addr mem.Addr, old, new uint64) bool {
	l := mem.LineOf(addr)
	if a.loadedSinceCAS[l] {
		a.stat(l).casAfter++
	}
	for k := range a.loadedSinceCAS {
		delete(a.loadedSinceCAS, k)
	}
	r := a.c.CAS(addr, old, new)
	if a.isLeased && a.leased == l {
		a.dropLease()
	} else {
		a.touch(l)
	}
	return r
}

// Store passes through; a store to the leased line completes its
// exclusive use and releases the lease, stores elsewhere (e.g. preparing
// a new node) keep it.
func (a *Auto) Store(addr mem.Addr, v uint64) {
	l := mem.LineOf(addr)
	a.c.Store(addr, v)
	if a.isLeased && a.leased == l {
		a.dropLease()
	} else {
		a.touch(l)
	}
}

// FetchAdd passes through; like Store it completes the leased line's use.
func (a *Auto) FetchAdd(addr mem.Addr, delta uint64) uint64 {
	l := mem.LineOf(addr)
	r := a.c.FetchAdd(addr, delta)
	if a.isLeased && a.leased == l {
		a.dropLease()
	} else {
		a.touch(l)
	}
	return r
}

// Swap passes through; like Store it completes the leased line's use.
func (a *Auto) Swap(addr mem.Addr, v uint64) uint64 {
	l := mem.LineOf(addr)
	r := a.c.Swap(addr, v)
	if a.isLeased && a.leased == l {
		a.dropLease()
	} else {
		a.touch(l)
	}
	return r
}

// Lease passes through (manual leases still work under Auto).
func (a *Auto) Lease(addr mem.Addr, dur uint64) { a.c.Lease(addr, dur) }

// LeaseAt passes through.
func (a *Auto) LeaseAt(site uint64, addr mem.Addr, dur uint64) { a.c.LeaseAt(site, addr, dur) }

// Release passes through; it also clears Auto's record if it owned the
// lease.
func (a *Auto) Release(addr mem.Addr) bool {
	if a.isLeased && a.leased == mem.LineOf(addr) {
		a.isLeased = false
	}
	return a.c.Release(addr)
}

// MultiLease passes through (it releases all leases, including inserted
// ones).
func (a *Auto) MultiLease(dur uint64, addrs ...mem.Addr) bool {
	a.isLeased = false
	return a.c.MultiLease(dur, addrs...)
}

// SoftMultiLease passes through.
func (a *Auto) SoftMultiLease(dur uint64, addrs ...mem.Addr) {
	a.c.SoftMultiLease(dur, addrs...)
}

// ReleaseAll passes through.
func (a *Auto) ReleaseAll() {
	a.isLeased = false
	a.c.ReleaseAll()
}

// Work passes through.
func (a *Auto) Work(n uint64) { a.c.Work(n) }

// Alloc passes through.
func (a *Auto) Alloc(size uint64) mem.Addr { return a.c.Alloc(size) }

// Rand passes through.
func (a *Auto) Rand() *sim.RNG { return a.c.Rand() }

// Now passes through.
func (a *Auto) Now() uint64 { return a.c.Now() }
