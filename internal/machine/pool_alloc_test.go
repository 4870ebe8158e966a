//go:build !race

package machine

import "testing"

// Zero-alloc guards for the pooled request path, in the style of
// sim/alloc_test.go: every simulated memory access that misses issues one
// coherence request, so a per-transaction allocation here would dominate
// host time with GC work at scale. (The whole file is compiled out under
// -race, where poison mode deliberately trades cost for loud lifecycle
// failures and AllocsPerRun over-counts anyway.)

// TestRequestPoolZeroAlloc asserts an acquire/release transaction cycle
// allocates nothing: the request is a per-core slot, not a fresh object.
func TestRequestPoolZeroAlloc(t *testing.T) {
	m := New(testConfig(1))
	cs := m.cores[0]
	allocs := testing.AllocsPerRun(1000, func() {
		req := m.acquireReq(cs, 5, true, false)
		m.releaseReq(cs, req)
	})
	if allocs != 0 {
		t.Errorf("request acquire/release allocates %.1f objects, want 0", allocs)
	}
}

// TestDescribeReqZeroAlloc asserts the block-reason string for a miss is
// static (the waited-on line is recovered from the pooled request on the
// cold dump path instead of being formatted per miss).
func TestDescribeReqZeroAlloc(t *testing.T) {
	m := New(testConfig(1))
	cs := m.cores[0]
	req := m.acquireReq(cs, 5, true, true)
	defer m.releaseReq(cs, req)
	allocs := testing.AllocsPerRun(1000, func() {
		_ = describeReq(req)
	})
	if allocs != 0 {
		t.Errorf("describeReq allocates %.1f objects, want 0", allocs)
	}
}

// TestCoreArenaAllocZeroAlloc asserts simulated-memory allocation from a
// core's private arena is a pure bump (no host allocation, no lock).
func TestCoreArenaAllocZeroAlloc(t *testing.T) {
	m := New(testConfig(1))
	cs := m.cores[0]
	allocs := testing.AllocsPerRun(1000, func() {
		_ = cs.arena.AllocAligned(64)
	})
	if allocs != 0 {
		t.Errorf("arena AllocAligned allocates %.1f host objects, want 0", allocs)
	}
}

// TestHitRunZeroAlloc asserts that threads walking lines resident in their
// L1s allocate nothing, whether a hit runs ahead of the event queue or parks
// for its turn (the threads interleave, so both happen).
func TestHitRunZeroAlloc(t *testing.T) {
	m := New(testConfig(4))
	spawnListWalkers(m, 4, 64)
	if err := m.Run(50_000); err != nil { // first pass misses; queues grow to size
		t.Fatal(err)
	}
	before := m.eng.Stats()
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.Run(m.Now() + 1000); err != nil {
			t.Fatal(err)
		}
	})
	after := m.eng.Stats()
	m.Stop()
	if allocs != 0 {
		t.Errorf("a run of L1 hits allocates %.1f objects per 1000 cycles, want 0", allocs)
	}
	if after.SyncsSkipped == before.SyncsSkipped || after.SyncWakes == before.SyncWakes {
		t.Errorf("the measured runs skipped %d syncs and paid for %d; want both paths exercised",
			after.SyncsSkipped-before.SyncsSkipped, after.SyncWakes-before.SyncWakes)
	}
}

// TestLeaseCycleZeroAlloc asserts that a lease on a line the thread owns —
// Lease, Store, Release — allocates nothing: the lease table is fixed, and
// the expiry timer is a pooled record whose callback was bound once.
func TestLeaseCycleZeroAlloc(t *testing.T) {
	m := New(testConfig(1))
	a := m.Direct().Alloc(8)
	m.Spawn(0, func(c *Ctx) {
		for i := uint64(0); ; i++ {
			c.Lease(a, 1000)
			c.Store(a, i)
			c.Release(a)
		}
	})
	if err := m.Run(20_000); err != nil { // the first lease misses; timers fill the heap
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for n := m.stats.Leases; m.stats.Leases == n; {
			if err := m.Run(m.Now() + 1); err != nil {
				t.Fatal(err)
			}
		}
	})
	m.Stop()
	if allocs != 0 {
		t.Errorf("a lease on an owned line allocates %.1f objects, want 0", allocs)
	}
}

// TestMultiLeaseZeroAlloc asserts that a MultiLease of two lines the thread
// owns — MultiLease, two Stores, ReleaseAll — allocates nothing: the group
// is sorted in the core's reusable buffer, and the expiry timers are pooled.
func TestMultiLeaseZeroAlloc(t *testing.T) {
	m := New(testConfig(1))
	a, b := m.Direct().Alloc(8), m.Direct().Alloc(8)
	m.Spawn(0, func(c *Ctx) {
		for i := uint64(0); ; i++ {
			c.MultiLease(1000, b, a) // out of order: the group is sorted
			c.Store(a, i)
			c.Store(b, i)
			c.ReleaseAll()
		}
	})
	if err := m.Run(20_000); err != nil { // the first group misses; timers fill the heap
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for n := m.stats.MultiLeases; m.stats.MultiLeases == n; {
			if err := m.Run(m.Now() + 1); err != nil {
				t.Fatal(err)
			}
		}
	})
	m.Stop()
	if allocs != 0 {
		t.Errorf("a MultiLease of two owned lines allocates %.1f objects, want 0", allocs)
	}
}
