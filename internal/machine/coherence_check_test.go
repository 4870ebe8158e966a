package machine

import (
	"fmt"
	"strings"
	"testing"

	"leaserelease/internal/cache"
	"leaserelease/internal/mem"
)

// TestCoherenceInvariantAfterStress drives mixed random traffic (reads,
// writes, CASes, leases, multileases) across many lines and verifies the
// single-writer / directory-consistency invariant at the end.
func TestCoherenceInvariantAfterStress(t *testing.T) {
	const cores, lines, opsPer = 10, 24, 200
	m := New(testConfig(cores))
	d := m.Direct()
	addrs := make([]mem.Addr, lines)
	for i := range addrs {
		addrs[i] = d.Alloc(8)
	}
	for i := 0; i < cores; i++ {
		m.Spawn(0, func(c *Ctx) {
			for n := 0; n < opsPer; n++ {
				a := addrs[c.Rand().Intn(lines)]
				switch c.Rand().Intn(6) {
				case 0:
					c.Load(a)
				case 1:
					c.Store(a, c.Rand().Next())
				case 2:
					c.CAS(a, c.Load(a), c.Rand().Next())
				case 3:
					c.FetchAdd(a, 1)
				case 4:
					c.Lease(a, 500)
					c.Load(a)
					c.Work(uint64(c.Rand().Intn(800))) // sometimes expires
					c.Release(a)
				case 5:
					b := addrs[c.Rand().Intn(lines)]
					c.MultiLease(500, a, b)
					c.Store(a, 1)
					c.ReleaseAll()
				}
			}
		})
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestCoherenceInvariantWithEvictions thrashes one cache set so lines are
// evicted (including dirty writebacks) and re-fetched, then verifies.
func TestCoherenceInvariantWithEvictions(t *testing.T) {
	const cores = 4
	m := New(testConfig(cores))
	cfg := m.Config()
	sets := cfg.L1.SizeBytes / mem.LineSize / cfg.L1.Ways
	d := m.Direct()
	n := cfg.L1.Ways * 3
	base := d.Alloc(uint64(n * sets * mem.LineSize))
	addrs := make([]mem.Addr, n)
	for i := range addrs {
		addrs[i] = base + mem.Addr(i*sets*mem.LineSize)
	}
	for i := 0; i < cores; i++ {
		m.Spawn(0, func(c *Ctx) {
			for k := 0; k < 150; k++ {
				a := addrs[c.Rand().Intn(n)]
				if c.Rand().Intn(2) == 0 {
					c.Store(a, c.Rand().Next())
				} else {
					c.Load(a)
				}
			}
		})
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifyCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyCoherenceIsDeterministic: the directory visits its lines in
// ascending order, so with two lines corrupt VerifyCoherence ("the first
// violation found") names the lower one, every time.
func TestVerifyCoherenceIsDeterministic(t *testing.T) {
	m := New(testConfig(2))
	addrs := make([]mem.Addr, 128)
	for i := range addrs {
		addrs[i] = m.Direct().Alloc(8)
	}
	m.Spawn(0, func(c *Ctx) {
		for _, a := range addrs {
			c.Store(a, 1)
		}
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	n := 0
	var prev mem.Line
	for v := range m.proto.Lines() {
		if n > 0 && v.Line <= prev {
			t.Fatalf("line %#x visited after %#x", uint64(v.Line), uint64(prev))
		}
		prev = v.Line
		n++
	}
	if n < len(addrs) {
		t.Fatalf("the directory visited %d lines, want >= %d", n, len(addrs))
	}

	// Core 1 takes a Modified copy of two lines the directory records as
	// core 0's.
	for _, a := range []mem.Addr{addrs[90], addrs[10]} {
		m.cores[1].l1.Install(mem.LineOf(a), cache.Modified)
	}
	first := m.VerifyCoherence()
	if first == nil || !strings.Contains(first.Error(), fmt.Sprintf("line %#x:", uint64(mem.LineOf(addrs[10])))) {
		t.Fatalf("VerifyCoherence = %v, want the lower corrupt line %#x", first, uint64(mem.LineOf(addrs[10])))
	}
	for i := 0; i < 20; i++ {
		if err := m.VerifyCoherence(); err == nil || err.Error() != first.Error() {
			t.Fatalf("call %d: %v, then %v", i, first, err)
		}
	}
}
