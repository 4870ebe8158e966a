package machine

import (
	"fmt"
	"testing"

	"leaserelease/internal/coherence"
	"leaserelease/internal/mem"
	"leaserelease/internal/sim"
)

// testConfig returns a small, fast config for protocol tests.
func testConfig(cores int) Config {
	cfg := DefaultConfig(cores)
	return cfg
}

func TestLoadStoreSingleCore(t *testing.T) {
	m := New(testConfig(1))
	a := m.Direct().Alloc(8)
	var v1, v2 uint64
	m.Spawn(0, func(c *Ctx) {
		c.Store(a, 7)
		v1 = c.Load(a)
		c.Store(a, 9)
		v2 = c.Load(a)
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if v1 != 7 || v2 != 9 {
		t.Fatalf("v1=%d v2=%d, want 7, 9", v1, v2)
	}
	s := m.Stats()
	if s.L1Misses == 0 {
		t.Fatal("first access should miss")
	}
	if s.L1Hits < 3 {
		t.Fatalf("subsequent same-line accesses should hit; hits=%d", s.L1Hits)
	}
}

func TestCrossCorePropagation(t *testing.T) {
	m := New(testConfig(2))
	a := m.Direct().Alloc(8)
	flag := m.Direct().Alloc(8)
	var got uint64
	m.Spawn(0, func(c *Ctx) {
		c.Store(a, 123)
		c.Store(flag, 1)
	})
	m.Spawn(0, func(c *Ctx) {
		for c.Load(flag) != 1 {
			c.Work(100)
		}
		got = c.Load(a)
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if got != 123 {
		t.Fatalf("core 1 read %d, want 123", got)
	}
}

func TestCASAtomicUnderContention(t *testing.T) {
	const cores, per = 8, 50
	m := New(testConfig(cores))
	ctr := m.Direct().Alloc(8)
	for i := 0; i < cores; i++ {
		m.Spawn(0, func(c *Ctx) {
			for n := 0; n < per; n++ {
				for {
					v := c.Load(ctr)
					if c.CAS(ctr, v, v+1) {
						break
					}
				}
			}
		})
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(ctr); got != cores*per {
		t.Fatalf("counter = %d, want %d", got, cores*per)
	}
	if m.Stats().CASSuccesses != cores*per {
		t.Fatalf("CAS successes = %d, want %d", m.Stats().CASSuccesses, cores*per)
	}
}

func TestFetchAddAtomic(t *testing.T) {
	const cores, per = 6, 40
	m := New(testConfig(cores))
	ctr := m.Direct().Alloc(8)
	for i := 0; i < cores; i++ {
		m.Spawn(0, func(c *Ctx) {
			for n := 0; n < per; n++ {
				c.FetchAdd(ctr, 1)
			}
		})
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(ctr); got != cores*per {
		t.Fatalf("counter = %d, want %d", got, cores*per)
	}
}

func TestSwap(t *testing.T) {
	m := New(testConfig(1))
	a := m.Direct().Alloc(8)
	m.store.Store(a, 5)
	var old uint64
	m.Spawn(0, func(c *Ctx) { old = c.Swap(a, 11) })
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if old != 5 || m.Peek(a) != 11 {
		t.Fatalf("Swap: old=%d now=%d, want 5, 11", old, m.Peek(a))
	}
}

// TestLeaseDefersProbe checks the core mechanism: a probe arriving during a
// lease is queued until the voluntary release, so the leased read-CAS
// window is never interrupted.
func TestLeaseDefersProbe(t *testing.T) {
	m := New(testConfig(2))
	a := m.Direct().Alloc(8)
	var casOK bool
	var loadDone, releaseAt uint64
	m.Spawn(0, func(c *Ctx) {
		c.Lease(a, 10000)
		v := c.Load(a)
		c.Work(3000) // long critical window
		casOK = c.CAS(a, v, v+1)
		c.Release(a)
		releaseAt = c.Now()
	})
	m.Spawn(100, func(c *Ctx) {
		// This write will probe core 0's leased line and must wait.
		c.Store(a, 99)
		loadDone = c.Now()
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if !casOK {
		t.Fatal("CAS inside leased window failed")
	}
	if loadDone < releaseAt {
		t.Fatalf("probing store completed at %d, before release at %d", loadDone, releaseAt)
	}
	if m.Peek(a) != 99 {
		t.Fatalf("final value %d, want 99 (store must still apply)", m.Peek(a))
	}
	if m.Stats().DeferredProbes != 1 {
		t.Fatalf("deferred probes = %d, want 1", m.Stats().DeferredProbes)
	}
	if m.Stats().VoluntaryReleases != 1 {
		t.Fatalf("voluntary releases = %d, want 1", m.Stats().VoluntaryReleases)
	}
}

// TestInvoluntaryExpiry checks the MAX_LEASE_TIME bound: a never-released
// lease expires and the deferred probe is then serviced.
func TestInvoluntaryExpiry(t *testing.T) {
	cfg := testConfig(2)
	cfg.Lease.MaxLeaseTime = 2000
	m := New(cfg)
	a := m.Direct().Alloc(8)
	var leaseStart, storeDone uint64
	var relVoluntary bool
	m.Spawn(0, func(c *Ctx) {
		c.Lease(a, 1e9) // clamped to 2000
		leaseStart = c.Now()
		c.Work(50000) // sit well past the lease
		relVoluntary = c.Release(a)
	})
	m.Spawn(100, func(c *Ctx) {
		c.Store(a, 1)
		storeDone = c.Now()
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if relVoluntary {
		t.Fatal("Release after expiry must report involuntary (false)")
	}
	deadline := leaseStart + 2000
	if storeDone < deadline {
		t.Fatalf("store done at %d, before lease deadline %d", storeDone, deadline)
	}
	if storeDone > deadline+200 {
		t.Fatalf("store done at %d, too long after deadline %d", storeDone, deadline)
	}
	if m.Stats().InvoluntaryReleases != 1 {
		t.Fatalf("involuntary releases = %d, want 1", m.Stats().InvoluntaryReleases)
	}
}

// TestBoundedDelay is Proposition 2: with leases, no request waits more
// than (base protocol delay + MAX_LEASE_TIME).
func TestBoundedDelay(t *testing.T) {
	cfg := testConfig(4)
	cfg.Lease.MaxLeaseTime = 500
	m := New(cfg)
	a := m.Direct().Alloc(8)
	var worst uint64
	for i := 0; i < 4; i++ {
		m.Spawn(0, func(c *Ctx) {
			for n := 0; n < 30; n++ {
				start := c.Now()
				c.Lease(a, 500)
				c.Load(a)
				c.Work(1000) // always expires involuntarily
				c.Release(a)
				if d := c.Now() - start; d > worst {
					worst = d
				}
			}
		})
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	// A queued GetX waits for at most 3 predecessors, each holding the
	// line for <= MAX_LEASE_TIME plus protocol hops. Generous bound:
	limit := uint64(4*(500+200) + 2000)
	if worst > limit {
		t.Fatalf("worst op latency %d exceeds bound %d", worst, limit)
	}
}

func TestReleaseWithoutLease(t *testing.T) {
	m := New(testConfig(1))
	a := m.Direct().Alloc(8)
	var r bool
	m.Spawn(0, func(c *Ctx) { r = c.Release(a) })
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if r {
		t.Fatal("Release on unleased line returned true")
	}
}

func TestLeaseNoExtension(t *testing.T) {
	cfg := testConfig(2)
	cfg.Lease.MaxLeaseTime = 1000
	m := New(cfg)
	a := m.Direct().Alloc(8)
	var storeDone, leaseStart uint64
	m.Spawn(0, func(c *Ctx) {
		c.Lease(a, 1000)
		leaseStart = c.Now()
		for i := 0; i < 100; i++ {
			c.Lease(a, 1000) // must not extend
			c.Work(100)
		}
	})
	m.Spawn(50, func(c *Ctx) { c.Store(a, 1); storeDone = c.Now() })
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if storeDone > leaseStart+1000+200 {
		t.Fatalf("store done at %d: repeated Lease extended the lease (start %d)", storeDone, leaseStart)
	}
}

func TestLeaseTableFIFOEviction(t *testing.T) {
	cfg := testConfig(1)
	cfg.Lease.MaxNumLeases = 2
	m := New(cfg)
	d := m.Direct()
	a, b, cc := d.Alloc(8), d.Alloc(8), d.Alloc(8)
	var heldA, heldB, heldC bool
	m.Spawn(0, func(c *Ctx) {
		c.Lease(a, 10000)
		c.Lease(b, 10000)
		c.Lease(cc, 10000) // evicts a
		heldA, heldB, heldC = c.LeaseHeld(a), c.LeaseHeld(b), c.LeaseHeld(cc)
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if heldA || !heldB || !heldC {
		t.Fatalf("held = %v %v %v, want false true true", heldA, heldB, heldC)
	}
	if m.Stats().EvictedLeases != 1 {
		t.Fatalf("evicted leases = %d, want 1", m.Stats().EvictedLeases)
	}
}

// TestMultiLeaseJointHold: once a MultiLease group is acquired, probes on
// all members are deferred until ReleaseAll.
func TestMultiLeaseJointHold(t *testing.T) {
	m := New(testConfig(3))
	d := m.Direct()
	a, b := d.Alloc(8), d.Alloc(8)
	var releaseAt, doneA, doneB uint64
	m.Spawn(0, func(c *Ctx) {
		if !c.MultiLease(10000, a, b) {
			t.Error("MultiLease refused")
			return
		}
		c.Store(a, 1)
		c.Store(b, 2)
		c.Work(3000)
		c.ReleaseAll()
		releaseAt = c.Now()
	})
	m.Spawn(500, func(c *Ctx) { c.Store(a, 10); doneA = c.Now() })
	m.Spawn(500, func(c *Ctx) { c.Store(b, 20); doneB = c.Now() })
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if doneA < releaseAt || doneB < releaseAt {
		t.Fatalf("probe completed before ReleaseAll: a=%d b=%d rel=%d", doneA, doneB, releaseAt)
	}
	if m.Peek(a) != 10 || m.Peek(b) != 20 {
		t.Fatal("post-release stores lost")
	}
}

func TestMultiLeaseTooManyIgnored(t *testing.T) {
	cfg := testConfig(1)
	cfg.Lease.MaxNumLeases = 2
	m := New(cfg)
	d := m.Direct()
	addrs := []mem.Addr{d.Alloc(8), d.Alloc(8), d.Alloc(8)}
	var ok bool
	var held bool
	m.Spawn(0, func(c *Ctx) {
		ok = c.MultiLease(1000, addrs...)
		held = c.LeaseHeld(addrs[0])
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if ok || held {
		t.Fatal("oversized MultiLease must be ignored")
	}
}

// TestMultiLeaseStorm drives randomized MultiLease transactions and checks
// deadlock-freedom (Proposition 3) plus value consistency: each transaction
// increments two counters under the group lease using plain loads/stores,
// and lock words guarantee we detect any mutual-exclusion violation.
func TestMultiLeaseStorm(t *testing.T) {
	const cores, objs, txPerCore = 8, 6, 60
	m := New(testConfig(cores))
	d := m.Direct()
	addrs := make([]mem.Addr, objs)
	for i := range addrs {
		addrs[i] = d.Alloc(8)
	}
	for i := 0; i < cores; i++ {
		m.Spawn(0, func(c *Ctx) {
			for n := 0; n < txPerCore; n++ {
				i := c.Rand().Intn(objs)
				j := c.Rand().Intn(objs)
				if !c.MultiLease(5000, addrs[i], addrs[j]) {
					t.Error("MultiLease refused")
					return
				}
				// Increments are load+store, racy without the joint
				// lease; total must still come out exact.
				c.Store(addrs[i], c.Load(addrs[i])+1)
				if j != i {
					c.Store(addrs[j], c.Load(addrs[j])+1)
				}
				c.ReleaseAll()
				c.Work(uint64(c.Rand().Intn(200)))
			}
		})
	}
	if err := m.Drain(); err != nil {
		t.Fatalf("multilease storm deadlocked or failed: %v", err)
	}
	var total uint64
	for _, a := range addrs {
		total += m.Peek(a)
	}
	want := uint64(cores * txPerCore * 2)
	// Same-index picks increment once instead of twice; count them out.
	if total > want || total < want/2 {
		t.Fatalf("total increments = %d, out of plausible range (max %d)", total, want)
	}
}

// TestMultiLeaseExactWithDistinctPairs repeats the storm with guaranteed
// distinct pairs so the final sum is exact — a real mutual-exclusion check.
func TestMultiLeaseExactWithDistinctPairs(t *testing.T) {
	const cores, objs, txPerCore = 8, 6, 60
	m := New(testConfig(cores))
	d := m.Direct()
	addrs := make([]mem.Addr, objs)
	for i := range addrs {
		addrs[i] = d.Alloc(8)
	}
	for i := 0; i < cores; i++ {
		m.Spawn(0, func(c *Ctx) {
			for n := 0; n < txPerCore; n++ {
				i := c.Rand().Intn(objs)
				j := c.Rand().Intn(objs - 1)
				if j >= i {
					j++
				}
				if !c.MultiLease(5000, addrs[i], addrs[j]) {
					t.Error("MultiLease refused")
					return
				}
				c.Store(addrs[i], c.Load(addrs[i])+1)
				c.Store(addrs[j], c.Load(addrs[j])+1)
				c.ReleaseAll()
			}
		})
	}
	if err := m.Drain(); err != nil {
		t.Fatalf("deadlock: %v", err)
	}
	var total uint64
	for _, a := range addrs {
		total += m.Peek(a)
	}
	if want := uint64(cores * txPerCore * 2); total != want {
		t.Fatalf("total = %d, want %d: joint leases failed to serialize", total, want)
	}
}

// TestUnsortedAcquisitionDeadlocks is the negative counterpart of
// Proposition 3: acquiring group lines in *opposite* orders while deferring
// probes during acquisition deadlocks, and the engine detects it. It uses
// package internals to bypass MultiLease's sorting.
func TestUnsortedAcquisitionDeadlocks(t *testing.T) {
	m := New(testConfig(2))
	d := m.Direct()
	a, b := d.Alloc(8), d.Alloc(8)
	grab := func(c *Ctx, order []mem.Addr) {
		cs := c.cs
		for _, ad := range order {
			c.p.Sync()
			l := mem.LineOf(ad)
			cs.leases.Insert(l, 1000, true) // group entry: defers pre-start
			if cs.l1.Lookup(l, true) {
				cs.l1.Pin(l)
				c.p.Work(1)
				continue
			}
			req := newLeaseRequest(cs.id, l)
			c.m.proto.Submit(req)
			c.p.Block("unsorted group acquire")
		}
	}
	m.Spawn(0, func(c *Ctx) {
		c.Store(a, 1) // own A first
		grab(c, []mem.Addr{a, b})
	})
	m.Spawn(0, func(c *Ctx) {
		c.Store(b, 1) // own B first
		grab(c, []mem.Addr{b, a})
	})
	err := m.Drain()
	de, ok := err.(*sim.DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError (unsorted acquisition must deadlock)", err)
	}
	if len(de.Blocked) != 2 {
		t.Fatalf("blocked = %v, want both cores", de.Blocked)
	}
	m.Stop()
}

// TestRegularBreaksLease checks the §5 prioritization optimization.
func TestRegularBreaksLease(t *testing.T) {
	cfg := testConfig(2)
	cfg.RegularBreaksLease = true
	cfg.Lease.MaxLeaseTime = 100000
	m := New(cfg)
	a := m.Direct().Alloc(8)
	var storeDone uint64
	m.Spawn(0, func(c *Ctx) {
		c.Lease(a, 100000)
		c.Work(200000)
	})
	m.Spawn(100, func(c *Ctx) {
		c.Store(a, 1) // regular request: breaks the lease immediately
		storeDone = c.Now()
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if storeDone > 1000 {
		t.Fatalf("store done at %d: regular request did not break the lease", storeDone)
	}
	if m.Stats().BrokenLeases != 1 {
		t.Fatalf("broken leases = %d, want 1", m.Stats().BrokenLeases)
	}
}

// TestLeaseRequestStillQueuesUnderPriority: with RegularBreaksLease on, a
// lease-initiated request must still be deferred.
func TestLeaseRequestStillQueuesUnderPriority(t *testing.T) {
	cfg := testConfig(2)
	cfg.RegularBreaksLease = true
	m := New(cfg)
	a := m.Direct().Alloc(8)
	var releaseAt, leaseDone uint64
	m.Spawn(0, func(c *Ctx) {
		c.Lease(a, 20000)
		c.Work(3000)
		c.Release(a)
		releaseAt = c.Now()
	})
	m.Spawn(100, func(c *Ctx) {
		c.Lease(a, 1000) // lease request: queues
		leaseDone = c.Now()
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if leaseDone < releaseAt {
		t.Fatalf("lease request completed at %d before release at %d", leaseDone, releaseAt)
	}
}

func TestEvictionWritebackPath(t *testing.T) {
	// Thrash one set far beyond associativity; dirty evictions must write
	// back and later reloads must see the stored values.
	m := New(testConfig(1))
	cfg := m.Config()
	sets := cfg.L1.SizeBytes / mem.LineSize / cfg.L1.Ways
	n := cfg.L1.Ways * 4
	addrs := make([]mem.Addr, n)
	al := m.Direct()
	base := al.Alloc(uint64(n * sets * mem.LineSize))
	for i := range addrs {
		addrs[i] = base + mem.Addr(i*sets*mem.LineSize) // all map to one set
	}
	m.Spawn(0, func(c *Ctx) {
		for i, a := range addrs {
			c.Store(a, uint64(i)+1)
		}
		for i, a := range addrs {
			if got := c.Load(a); got != uint64(i)+1 {
				t.Errorf("after thrash, Load(%d) = %d, want %d", i, got, i+1)
			}
		}
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Msgs[coherence.MsgWriteback] == 0 {
		t.Fatal("no writebacks recorded despite dirty thrashing")
	}
}

func TestStopKillsBlockedThreads(t *testing.T) {
	m := New(testConfig(2))
	a := m.Direct().Alloc(8)
	m.Spawn(0, func(c *Ctx) {
		c.Lease(a, 1e9)
		for {
			c.Work(1000)
			c.p.Sync()
		}
	})
	m.Spawn(0, func(c *Ctx) {
		c.Store(a, 1) // blocks on the lease for a long time
	})
	if err := m.Run(5000); err != nil {
		t.Fatal(err)
	}
	m.Stop() // must not hang
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (Stats, uint64) {
		m := New(testConfig(4))
		ctr := m.Direct().Alloc(8)
		for i := 0; i < 4; i++ {
			m.Spawn(0, func(c *Ctx) {
				for n := 0; n < 100; n++ {
					c.Lease(ctr, 5000)
					v := c.Load(ctr)
					c.CAS(ctr, v, v+1)
					c.Release(ctr)
					c.Work(uint64(c.Rand().Intn(50)))
				}
			})
		}
		if err := m.Drain(); err != nil {
			t.Fatal(err)
		}
		return m.Stats(), m.Peek(ctr)
	}
	s1, v1 := run()
	s2, v2 := run()
	if v1 != v2 {
		t.Fatalf("final values differ: %d vs %d", v1, v2)
	}
	if fmt.Sprint(s1) != fmt.Sprint(s2) {
		t.Fatalf("stats differ:\n%v\nvs\n%v", s1, s2)
	}
}

func TestDirectSetupVisible(t *testing.T) {
	m := New(testConfig(1))
	d := m.Direct()
	a := d.Alloc(8)
	d.Store(a, 77)
	if d.Load(a) != 77 {
		t.Fatal("Direct round trip failed")
	}
	var got uint64
	m.Spawn(0, func(c *Ctx) { got = c.Load(a) })
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if got != 77 {
		t.Fatalf("simulated read of setup data = %d, want 77", got)
	}
}

func TestStatsSubWindow(t *testing.T) {
	m := New(testConfig(2))
	a := m.Direct().Alloc(8)
	for i := 0; i < 2; i++ {
		m.Spawn(0, func(c *Ctx) {
			for {
				c.FetchAdd(a, 1)
				c.Work(50)
			}
		})
	}
	if err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	mid := m.Stats()
	if err := m.Run(20000); err != nil {
		t.Fatal(err)
	}
	end := m.Stats()
	m.Stop()
	w := end.Sub(mid)
	if w.Cycles != 10000 {
		t.Fatalf("window cycles = %d, want 10000", w.Cycles)
	}
	if w.TotalMsgs() == 0 || w.TotalMsgs() >= end.TotalMsgs() {
		t.Fatalf("window msgs = %d (end %d): Sub broken", w.TotalMsgs(), end.TotalMsgs())
	}
	if w.EnergyNJ(m.Config().Energy) <= 0 {
		t.Fatal("window energy must be positive")
	}
}

// TestUncontendedLeaseNoSlowdown: on a single core, adding leases must not
// change throughput appreciably (paper: "leases do not affect overall
// throughput" without contention).
func TestUncontendedLeaseNoSlowdown(t *testing.T) {
	run := func(lease bool) uint64 {
		m := New(testConfig(1))
		a := m.Direct().Alloc(8)
		var ops uint64
		m.Spawn(0, func(c *Ctx) {
			for {
				if lease {
					c.Lease(a, 5000)
				}
				v := c.Load(a)
				c.CAS(a, v, v+1)
				if lease {
					c.Release(a)
				}
				ops++
			}
		})
		if err := m.Run(100000); err != nil {
			t.Fatal(err)
		}
		m.Stop()
		return ops
	}
	base, leased := run(false), run(true)
	if leased*2 < base {
		t.Fatalf("leases halved uncontended throughput: base=%d leased=%d", base, leased)
	}
}

// newLeaseRequest builds a lease-marked exclusive request (test helper for
// the unsorted-acquisition negative test).
func newLeaseRequest(core int, l mem.Line) *coherence.Request {
	return &coherence.Request{Core: core, Line: l, Excl: true, Lease: true}
}

// TestColdMissEvents pins what one cold load miss on an idle machine costs
// the event kernel: the proc's start, the request's arrival at the directory
// (one event, its jitter drawn at send), the grant, the commit and the wake
// the grant schedules; under Tardis also the read reservation's lapse. Each
// protocol's first jitter draw is its own: MSI's is non-zero, where a hop
// relayed at the directory took a second event (6), and Tardis' is zero.
func TestColdMissEvents(t *testing.T) {
	for proto, want := range map[string]uint64{coherence.ProtocolMSI: 5, coherence.ProtocolTardis: 6} {
		cfg := testConfig(1)
		cfg.Protocol = proto
		m := New(cfg)
		a := m.Direct().Alloc(8)
		m.Spawn(0, func(c *Ctx) { c.Load(a) })
		if err := m.Drain(); err != nil {
			t.Fatal(err)
		}
		if s := m.Stats(); s.L1Misses != 1 || s.L1Hits != 0 {
			t.Fatalf("%s: %d misses, %d hits; want one cold miss", proto, s.L1Misses, s.L1Hits)
		}
		if got := m.EngineStats().EventsTotal; got != want {
			t.Errorf("%s: a cold load miss executed %d events, want %d", proto, got, want)
		}
	}
}
