package machine

import (
	"testing"

	"leaserelease/internal/core"
	"leaserelease/internal/mem"
)

// TestSoftMultiLeaseStagger: the j-th outer (lower-address) lease must run
// longer by j*softLeaseStagger so the group expires jointly-ish (§4).
func TestSoftMultiLeaseStagger(t *testing.T) {
	cfg := testConfig(1)
	cfg.Lease.MaxLeaseTime = 100000
	m := New(cfg)
	d := m.Direct()
	a, b := d.Alloc(8), d.Alloc(8) // a < b
	var durA, durB uint64
	m.Spawn(0, func(c *Ctx) {
		c.SoftMultiLease(1000, a, b)
		durA = c.cs.leases.Find(mem.LineOf(a)).Duration
		durB = c.cs.leases.Find(mem.LineOf(b)).Duration
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if durA != 1050 || durB != 1000 {
		t.Fatalf("durations = %d, %d; want 1050, 1000", durA, durB)
	}
}

// TestSoftMultiLeaseIsSingleLeases: entries are not group entries, so
// probes are NOT deferred during acquisition (the weaker semantics).
func TestSoftMultiLeaseIsSingleLeases(t *testing.T) {
	m := New(testConfig(1))
	d := m.Direct()
	a, b := d.Alloc(8), d.Alloc(8)
	var inGroup bool
	m.Spawn(0, func(c *Ctx) {
		c.SoftMultiLease(1000, a, b)
		inGroup = c.cs.leases.Find(mem.LineOf(a)).InGroup ||
			c.cs.leases.Find(mem.LineOf(b)).InGroup
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if inGroup {
		t.Fatal("software multilease created hardware group entries")
	}
}

// TestMultiLeaseReleasesPriorLeases: "the MultiLease call will first
// release all currently held leases" (§4).
func TestMultiLeaseReleasesPriorLeases(t *testing.T) {
	m := New(testConfig(1))
	d := m.Direct()
	old := d.Alloc(8)
	a, b := d.Alloc(8), d.Alloc(8)
	var oldHeld, newHeld bool
	m.Spawn(0, func(c *Ctx) {
		c.Lease(old, 100000)
		c.MultiLease(1000, a, b)
		oldHeld = c.LeaseHeld(old)
		newHeld = c.LeaseHeld(a) && c.LeaseHeld(b)
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if oldHeld {
		t.Fatal("MultiLease kept a previously held lease")
	}
	if !newHeld {
		t.Fatal("MultiLease group not held")
	}
}

// TestMultiLeaseSortedAcquisition: group lines are acquired in ascending
// line order regardless of argument order.
func TestMultiLeaseSortedAcquisition(t *testing.T) {
	m := New(testConfig(1))
	d := m.Direct()
	a, b, cAddr := d.Alloc(8), d.Alloc(8), d.Alloc(8)
	var lines []mem.Line
	m.Spawn(0, func(c *Ctx) {
		c.MultiLease(1000, cAddr, a, b) // deliberately unsorted args
		c.cs.leases.ForEach(func(e *core.Entry) {
			if e.InGroup {
				lines = append(lines, e.Line)
			}
		})
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("group size = %d, want 3", len(lines))
	}
	for i := 1; i < len(lines); i++ {
		if lines[i] <= lines[i-1] {
			t.Fatalf("acquisition order not sorted: %v", lines)
		}
	}
}

// TestMultiLeaseDuplicateAddrsCoalesce: duplicate addresses and same-line
// addresses collapse into one lease entry.
func TestMultiLeaseDuplicateAddrsCoalesce(t *testing.T) {
	m := New(testConfig(1))
	d := m.Direct()
	a := d.Alloc(16)
	var n int
	m.Spawn(0, func(c *Ctx) {
		c.MultiLease(1000, a, a+8, a)
		n = c.cs.leases.Len()
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("lease entries = %d, want 1", n)
	}
}
