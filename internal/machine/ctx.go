package machine

import (
	"fmt"
	"slices"

	"leaserelease/internal/core"
	"leaserelease/internal/mem"
	"leaserelease/internal/sim"
	"leaserelease/internal/telemetry"
)

// API is the instruction-set surface simulated programs are written
// against: plain and read-modify-write memory accesses, the Lease/Release
// instruction family, local compute, and allocation.
//
// Two implementations exist: *Ctx (fully timed, runs on a simulated core)
// and *Direct (zero-latency, for building initial data structure state
// before the simulation starts). Data structures take an API so the same
// algorithm code serves both setup and measurement.
type API interface {
	// Load returns the word at a.
	Load(a mem.Addr) uint64
	// Store writes the word at a.
	Store(a mem.Addr, v uint64)
	// CAS atomically replaces the word at a with new if it equals old,
	// reporting success.
	CAS(a mem.Addr, old, new uint64) bool
	// FetchAdd atomically adds delta to the word at a, returning the old
	// value.
	FetchAdd(a mem.Addr, delta uint64) uint64
	// Swap atomically stores v, returning the old value.
	Swap(a mem.Addr, v uint64) uint64
	// Spin waits for the word at a to differ from v and returns it. It is
	// exactly the loop
	//
	//	for {
	//		Work(pause)
	//		if u := Load(a); u != v {
	//			return u
	//		}
	//	}
	//
	// in every simulated effect: timing, statistics, preemption draws. *Ctx
	// performs the loads that only a message to the core could make read
	// something else in bulk, without an event each.
	Spin(a mem.Addr, v, pause uint64) uint64

	// Lease leases the cache line containing a for dur cycles (clamped
	// to MAX_LEASE_TIME). Re-leasing a leased line is a no-op.
	Lease(a mem.Addr, dur uint64)
	// LeaseAt is Lease attributed to a program site, so the §5
	// speculative predictor (when enabled) can learn to skip leases that
	// keep expiring involuntarily.
	LeaseAt(site uint64, a mem.Addr, dur uint64)
	// Release voluntarily releases the lease on a's line, reporting
	// whether a lease was still held (false means it already expired
	// involuntarily or was never taken) — the boolean variant of §3.
	Release(a mem.Addr) bool
	// MultiLease jointly leases the lines of all addrs (hardware
	// MultiLease, Algorithm 2): releases all held leases, acquires the
	// group in global sorted order, then starts all countdowns together.
	// Returns false if the group exceeds MAX_NUM_LEASES (the request is
	// ignored, per §4).
	MultiLease(dur uint64, addrs ...mem.Addr) bool
	// SoftMultiLease is the software emulation of MultiLease (§4):
	// sorted single leases with staggered timeouts time + j·X. Joint
	// holding is not guaranteed.
	SoftMultiLease(dur uint64, addrs ...mem.Addr)
	// ReleaseAll releases every held lease (MultiRelease).
	ReleaseAll()

	// Work burns n cycles of local computation.
	Work(n uint64)
	// Alloc returns a fresh cache-line-aligned block of at least size
	// bytes, padded to whole lines (no false sharing between blocks).
	Alloc(size uint64) mem.Addr
	// Rand is this thread's deterministic RNG.
	Rand() *sim.RNG
	// Now is the current simulated time in cycles.
	Now() uint64
}

// Ctx is a simulated thread's timed view of the machine. All methods must
// be called only from inside the thread function passed to Machine.Spawn.
type Ctx struct {
	m  *Machine
	cs *coreState
	p  *sim.Proc
}

var _ API = (*Ctx)(nil)

// Now returns the thread's local clock in cycles.
func (c *Ctx) Now() uint64 { return c.p.Clock() }

// Work burns n cycles of local computation.
func (c *Ctx) Work(n uint64) { c.p.Work(n) }

// Rand returns the thread's deterministic RNG.
func (c *Ctx) Rand() *sim.RNG { return c.p.RNG() }

// Alloc returns a fresh cache-line-aligned, line-padded block. Each core
// allocates from its own fixed-base arena, so the addresses a thread sees
// depend only on its own allocation sequence, never on how the threads
// interleaved.
func (c *Ctx) Alloc(size uint64) mem.Addr { return c.cs.arena.AllocAligned(size) }

// Observe runs fn. An observer needs no place in the event order: one that
// touches only its own core's state sees the bus events and op ends of that
// core in the same order whether its hits ran ahead of the queue or not
// (DESIGN.md §2.4). It is kept for benchmarks/leaseperf, which calls it.
func (c *Ctx) Observe(fn func()) { fn() }

// access obtains the line of a with read or write permission, blocking
// through the coherence protocol on a miss. On return the access itself
// has been charged (L1 hit latency) and the value may be read/written.
//
// The thread's local clock T may be ahead of the event queue. Three cases:
//
//   - The line is held with the needed permission, no started lease of the
//     core expires by T, the protocol reports the copy private for the
//     access (coherence.Directory.Private; RunAhead is told both, so that it
//     counts the refusal), and the engine vouches that nothing else can
//     reach the core's domain by T (sim.Proc.RunAhead: T less than one
//     lookahead ahead, no foreign callback queued at or before T, T inside
//     the horizon). The hit is performed at T at once. It touches the core's
//     ways, its hit counter and the word, which only events on this core's
//     domain could change or expose, and none is due by T; the wake it saves
//     ordered no other event.
//   - The line is not held. It is still not held at T: with no transaction
//     outstanding, only a grant adds a permission to the L1 (DESIGN.md §2.4).
//     The miss is issued at T by an event on the core's domain, in the slot
//     the Sync wake would have taken (sim.Proc.BlockAfter), and the thread
//     is not resumed until the grant.
//   - Otherwise the access synchronizes with the event queue first, so that
//     every probe, invalidation, grant or lease expiry due at the core before
//     T has been applied to its L1, and then looks the line up.
func (c *Ctx) access(a mem.Addr, write bool) {
	c.m.maybePreempt(c.cs, write)
	c.perform(a, write)
}

// perform is access after its preemption point.
func (c *Ctx) perform(a mem.Addr, write bool) {
	cs := c.cs
	l := mem.LineOf(a)
	held := cs.l1.Holds(l, write)
	if held && c.p.RunAhead(cs.leases.ExpiresBy(c.p.Clock()), !c.m.proto.Private(cs.id, l, write)) {
		cs.l1.Lookup(l, write)
		c.p.Work(c.m.cfg.L1HitLat)
		return
	}
	if !held && !c.m.syncMisses {
		c.miss(l, write, false, cs.issue)
		return
	}
	c.p.Sync()
	if cs.l1.Lookup(l, write) {
		c.p.Work(c.m.cfg.L1HitLat)
		return
	}
	c.miss(l, write, false, cs.submit)
}

// miss obtains line l through the coherence protocol: issue sends the
// request at the thread's local clock, the thread blocks until the grant
// arrives, then the access is charged. issue is the core's submit when the
// caller has synchronized and its Lookup missed, and its issue when the
// caller found l not held ahead of the event queue and looked nothing up.
func (c *Ctx) miss(l mem.Line, excl, lease bool, issue func()) {
	req := c.m.acquireReq(c.cs, l, excl, lease)
	c.p.BlockAfter(issue, describeReq(req))
	c.m.releaseReq(c.cs, req)
	c.p.Work(c.m.cfg.L1HitLat)
}

// Load returns the word at a, timed through the memory hierarchy.
func (c *Ctx) Load(a mem.Addr) uint64 {
	c.access(a, false)
	return c.m.store.Load(a)
}

// Store writes the word at a, obtaining exclusive ownership first.
func (c *Ctx) Store(a mem.Addr, v uint64) {
	c.access(a, true)
	c.m.store.Store(a, v)
}

// CAS performs a compare-and-swap on the word at a.
func (c *Ctx) CAS(a mem.Addr, old, new uint64) bool {
	c.access(a, true)
	if c.m.store.Load(a) != old {
		c.m.stats.CASFailures++
		return false
	}
	c.m.store.Store(a, new)
	c.m.stats.CASSuccesses++
	return true
}

// FetchAdd atomically adds delta to the word at a, returning the old value.
func (c *Ctx) FetchAdd(a mem.Addr, delta uint64) uint64 {
	c.access(a, true)
	v := c.m.store.Load(a)
	c.m.store.Store(a, v+delta)
	return v
}

// Swap atomically stores v at a, returning the old value.
func (c *Ctx) Swap(a mem.Addr, v uint64) uint64 {
	c.access(a, true)
	old := c.m.store.Load(a)
	c.m.store.Store(a, v)
	return old
}

// Lease implements the single-line Lease instruction (Algorithm 1): create
// the lease-table entry (FIFO-evicting the oldest if full), bring the line
// in Exclusive state, and start the countdown once ownership is granted.
func (c *Ctx) Lease(a mem.Addr, dur uint64) { c.LeaseAt(0, a, dur) }

// LeaseAt is Lease with an explicit site id (the "program counter" of the
// §5 speculative mechanism). When the predictor is enabled and the site's
// leases keep expiring involuntarily, the lease is skipped — since lease
// usage is advisory, this never affects correctness.
func (c *Ctx) LeaseAt(site uint64, a mem.Addr, dur uint64) {
	c.p.Sync()
	cs := c.cs
	if cs.pred.shouldIgnore(site) {
		c.m.stats.IgnoredLeases++
		c.m.trace(cs, telemetry.LeaseIgnored, mem.LineOf(a))
		c.p.Work(1)
		return
	}
	l := mem.LineOf(a)
	if cs.leases.Find(l) != nil {
		// Already leased: no extension (preserves MAX_LEASE_TIME).
		c.p.Work(1)
		return
	}
	if g, clamped := cs.ctrl.grant(site, dur); clamped {
		c.m.stats.CtrlClamps++
		dur = g
	}
	c.m.stats.Leases++
	c.m.trace(cs, telemetry.LeaseCreated, l)
	e, old, evicted := cs.leases.Insert(l, dur, false)
	e.Site = site
	if evicted {
		c.m.endLease(cs, old, telemetry.LeaseEvicted, c.p.Clock())
	}
	if cs.l1.Lookup(l, true) {
		// Already owned Exclusive: the lease starts immediately.
		if started := cs.leases.Start(l, c.p.Clock()); started != nil {
			cs.l1.Pin(l)
			c.m.startLease(cs, started)
		}
		c.p.Work(c.m.cfg.L1HitLat)
		return
	}
	c.miss(l, true, true, cs.submit)
}

// Release implements the Release instruction, with the optional boolean
// result of §3: true means the release was voluntary (a lease was still
// held). Release has fence semantics in the paper; on this in-order core a
// fence is free.
func (c *Ctx) Release(a mem.Addr) bool {
	c.p.Sync()
	cs := c.cs
	now := c.p.Clock()
	e, ok := cs.leases.Remove(mem.LineOf(a))
	c.p.Work(1)
	if !ok {
		return false
	}
	c.m.endLease(cs, e, telemetry.LeaseReleased, now)
	return true
}

// ReleaseAll implements MultiRelease: every held lease is released and any
// deferred probes are serviced (Algorithm 2, ReleaseAll).
func (c *Ctx) ReleaseAll() {
	c.p.Sync()
	c.releaseAllNow()
	c.p.Work(1)
}

// releaseAllNow releases all leases at the current (synced) instant.
func (c *Ctx) releaseAllNow() {
	cs := c.cs
	for e, ok := cs.leases.RemoveOldest(); ok; e, ok = cs.leases.RemoveOldest() {
		c.m.endLease(cs, e, telemetry.LeaseReleased, c.p.Clock())
	}
}

// MultiLease implements the hardware MultiLease (Algorithm 2): all held
// leases are first released; the group's lines are acquired in Exclusive
// state in global sorted order, deferring probes on already-acquired group
// lines during the acquisition phase; once the whole group is owned, all
// countdowns start together. Proposition 3 shows the sorted order makes
// this deadlock-free.
func (c *Ctx) MultiLease(dur uint64, addrs ...mem.Addr) bool {
	c.p.Sync()
	c.releaseAllNow()
	lines := c.cs.sortedLines(addrs)
	if len(lines) > c.m.cfg.Lease.MaxNumLeases {
		// "A MultiLease request that causes the MAX_NUM_LEASES bound to
		// be exceeded is ignored."
		c.p.Work(1)
		return false
	}
	c.m.stats.MultiLeases++
	cs := c.cs
	for _, l := range lines {
		c.p.Sync()
		cs.leases.Insert(l, dur, true)
		if cs.l1.Lookup(l, true) {
			cs.l1.Pin(l)
			c.p.Work(c.m.cfg.L1HitLat)
			continue
		}
		c.miss(l, true, true, cs.submit)
	}
	c.p.Sync()
	cs.leases.StartGroup(c.p.Clock(), func(e *core.Entry) { c.m.startLease(cs, e) })
	return true
}

// SoftMultiLease emulates MultiLease in software over single-line leases
// (§4): leases are taken in sorted order and the j-th outer (earlier) lease
// runs longer by j·SoftLeaseStagger, approximating a joint hold.
func (c *Ctx) SoftMultiLease(dur uint64, addrs ...mem.Addr) {
	lines := c.cs.sortedLines(addrs)
	n := len(lines)
	for j, l := range lines {
		// Per-line software bookkeeping (sorting, group-id management):
		// the instruction overhead that makes the emulation "incur a
		// slight, but consistent performance hit" (§7).
		c.p.Work(c.m.cfg.SoftLeaseOverhead)
		c.Lease(l.Base(), dur+uint64(n-1-j)*c.m.cfg.SoftLeaseStagger)
	}
}

// sortedLines returns the distinct lines of addrs in ascending order, in
// the core's reusable buffer: valid until the core's next group lease.
func (cs *coreState) sortedLines(addrs []mem.Addr) []mem.Line {
	lines := cs.lines[:0]
	for _, a := range addrs {
		lines = append(lines, mem.LineOf(a))
	}
	slices.Sort(lines)
	cs.lines = slices.Compact(lines)
	return cs.lines
}

// Fence advances global simulated time to the thread's local clock. Memory
// operations fence implicitly; call this before sampling Machine.Stats from
// inside a thread so the snapshot reflects everything up to "now".
func (c *Ctx) Fence() { c.p.Sync() }

// LeaseHeld reports whether the thread currently holds a lease on a's line
// (diagnostics/tests).
func (c *Ctx) LeaseHeld(a mem.Addr) bool {
	return c.cs.leases.Find(mem.LineOf(a)) != nil
}

// Direct is the zero-latency API implementation used to build initial data
// structure state before the simulation starts (and to inspect it after).
// Lease operations are no-ops; Release reports true. Direct must not be
// used while the engine is running.
type Direct struct {
	m   *Machine
	rng sim.RNG
}

var _ API = (*Direct)(nil)

// Direct returns the machine's setup accessor.
func (m *Machine) Direct() *Direct {
	return &Direct{m: m, rng: sim.NewRNG(m.cfg.Seed ^ 0xD1EC7)}
}

// Load returns the word at a.
func (d *Direct) Load(a mem.Addr) uint64 { return d.m.store.Load(a) }

// Store writes the word at a. A thread parked spinning on a's line is woken
// for its next load, which reads the new word.
func (d *Direct) Store(a mem.Addr, v uint64) {
	d.m.store.Store(a, v)
	if d.m.spinning > 0 {
		d.m.unparkLine(mem.LineOf(a))
	}
}

// CAS performs an (uncontended) compare-and-swap.
func (d *Direct) CAS(a mem.Addr, old, new uint64) bool {
	if d.m.store.Load(a) != old {
		return false
	}
	d.Store(a, new)
	return true
}

// FetchAdd adds delta to the word at a, returning the old value.
func (d *Direct) FetchAdd(a mem.Addr, delta uint64) uint64 {
	v := d.m.store.Load(a)
	d.Store(a, v+delta)
	return v
}

// Swap stores v at a, returning the old value.
func (d *Direct) Swap(a mem.Addr, v uint64) uint64 {
	old := d.m.store.Load(a)
	d.Store(a, v)
	return old
}

// Spin returns the word at a, which must differ from v: nothing else runs
// while Direct is in use, so the loop Spin stands for would never end, and
// Spin panics instead.
func (d *Direct) Spin(a mem.Addr, v, _ uint64) uint64 {
	if u := d.m.store.Load(a); u != v {
		return u
	}
	panic(fmt.Sprintf("machine: Direct.Spin at %#x on a word that reads %d and nothing can change", uint64(a), v))
}

// Lease is a no-op during setup.
func (d *Direct) Lease(mem.Addr, uint64) {}

// LeaseAt is a no-op during setup.
func (d *Direct) LeaseAt(uint64, mem.Addr, uint64) {}

// Release is a no-op during setup; it reports true (voluntary).
func (d *Direct) Release(mem.Addr) bool { return true }

// MultiLease is a no-op during setup; it reports true.
func (d *Direct) MultiLease(uint64, ...mem.Addr) bool { return true }

// SoftMultiLease is a no-op during setup.
func (d *Direct) SoftMultiLease(uint64, ...mem.Addr) {}

// ReleaseAll is a no-op during setup.
func (d *Direct) ReleaseAll() {}

// Work is free during setup.
func (d *Direct) Work(uint64) {}

// Alloc returns a fresh cache-line-aligned block.
func (d *Direct) Alloc(size uint64) mem.Addr { return d.m.alloc.AllocAligned(size) }

// Rand returns the setup RNG.
func (d *Direct) Rand() *sim.RNG { return &d.rng }

// Now returns the engine time (0 before the simulation starts).
func (d *Direct) Now() uint64 { return d.m.eng.Now() }
