package machine

import (
	"reflect"
	"testing"

	"leaserelease/internal/cache"
	"leaserelease/internal/faults"
	"leaserelease/internal/mem"
	"leaserelease/internal/sim"
	"leaserelease/internal/telemetry"
)

// TestVoluntaryReleaseRacesDeferredProbe: a probe is deferred behind an
// active lease and the holder releases voluntarily while the requester is
// still blocked. The probe must be served exactly once, the requester
// must complete with the leased value, and the release must still count
// as voluntary.
func TestVoluntaryReleaseRacesDeferredProbe(t *testing.T) {
	m := New(testConfig(2))
	a := m.Direct().Alloc(8)

	var served uint64
	m.Telemetry().Subscribe(telemetry.CatLease, func(e telemetry.Event) {
		if e.Kind == telemetry.ProbeServed {
			served++
		}
	})

	var got uint64
	m.Spawn(0, func(c *Ctx) {
		c.Lease(a, 10_000)
		c.Store(a, 41)
		// Hold long enough for core 1's ownership probe to arrive and be
		// deferred, then release while the probe sits queued.
		c.Work(2_000)
		c.Store(a, 42)
		c.Release(a)
	})
	m.Spawn(100, func(c *Ctx) {
		got = c.FetchAdd(a, 1) // blocks behind the lease
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.DeferredProbes != 1 {
		t.Fatalf("DeferredProbes = %d, want 1", s.DeferredProbes)
	}
	if served != 1 {
		t.Fatalf("ProbeServed events = %d, want exactly 1", served)
	}
	if s.VoluntaryReleases != 1 || s.InvoluntaryReleases != 0 {
		t.Fatalf("releases: voluntary=%d involuntary=%d, want 1/0 (release won the race)",
			s.VoluntaryReleases, s.InvoluntaryReleases)
	}
	if got != 42 {
		t.Fatalf("requester read %d, want 42 (the value at release)", got)
	}
	if err := m.VerifyCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestFullyPinnedSetForcedRelease drives the installLine path where the
// victim set is fully pinned by leases: the machine must force-release
// the oldest lease rather than fail the install.
func TestFullyPinnedSetForcedRelease(t *testing.T) {
	cfg := testConfig(1)
	// 128 B, 2-way, 64 B lines -> one set with two ways: two leased lines
	// pin the whole cache.
	cfg.L1.SizeBytes = 128
	cfg.L1.Ways = 2
	m := New(cfg)
	d := m.Direct()
	a := d.Alloc(8)
	b := d.Alloc(8)
	x := d.Alloc(8)

	m.Spawn(0, func(c *Ctx) {
		c.Lease(a, 50_000)
		c.Lease(b, 50_000)
		c.Load(x) // install needs a victim; both ways are pinned
		c.ReleaseAll()
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.ForcedReleases == 0 {
		t.Fatal("fully pinned set did not force a release")
	}
	if err := m.VerifyCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestCapacityPressureFault: the capacity-pressure fault shrinks L1
// associativity (same set count), which must increase misses but never
// correctness; and the run must stay deterministic per seed.
func TestCapacityPressureFault(t *testing.T) {
	run := func(capWays int) Stats {
		cfg := testConfig(1)
		if capWays > 0 {
			cfg.Faults = faults.Config{CapacityWays: capWays}
		}
		m := New(cfg)
		d := m.Direct()
		// 8 lines mapping across sets; re-walk them to create reuse the
		// smaller cache cannot hold.
		addrs := make([]mem.Addr, 8)
		for i := range addrs {
			addrs[i] = d.Alloc(8)
		}
		m.Spawn(0, func(c *Ctx) {
			for round := 0; round < 6; round++ {
				for _, a := range addrs {
					c.Load(a)
				}
			}
		})
		if err := m.Drain(); err != nil {
			t.Fatal(err)
		}
		return m.Stats()
	}
	base := run(0)
	squeezed := run(1)
	if squeezed.L1Misses < base.L1Misses {
		t.Fatalf("capacity pressure reduced misses: %d -> %d", base.L1Misses, squeezed.L1Misses)
	}
	again := run(1)
	if !reflect.DeepEqual(squeezed, again) {
		t.Fatalf("capacity-pressure run not deterministic:\n%+v\n%+v", squeezed, again)
	}
}

// TestLeaseCutFaultForcesEarlyExpiry: with LeaseCutPct=100 every lease
// expires before its full duration, so a probe deferred behind the lease
// is served strictly earlier than in the fault-free run.
func TestLeaseCutFaultForcesEarlyExpiry(t *testing.T) {
	run := func(cut int) (Stats, uint64) {
		cfg := testConfig(2)
		if cut > 0 {
			cfg.Faults = faults.Config{LeaseCutPct: cut}
		}
		m := New(cfg)
		var deferDelay uint64
		m.Telemetry().Subscribe(telemetry.CatLease, func(e telemetry.Event) {
			if e.Kind == telemetry.ProbeServed {
				deferDelay = e.Val
			}
		})
		a := m.Direct().Alloc(8)
		m.Spawn(0, func(c *Ctx) {
			c.Lease(a, 10_000)
			c.Store(a, 1)
			c.Work(20_000) // outlive the lease; it expires involuntarily
		})
		m.Spawn(100, func(c *Ctx) {
			c.FetchAdd(a, 1) // probe deferred until the lease expires
		})
		if err := m.Drain(); err != nil {
			t.Fatal(err)
		}
		return m.Stats(), deferDelay
	}
	base, baseDelay := run(0)
	if base.InvoluntaryReleases != 1 || baseDelay == 0 {
		t.Fatalf("baseline: involuntary=%d deferDelay=%d, want 1 and >0",
			base.InvoluntaryReleases, baseDelay)
	}
	cut, cutDelay := run(100)
	if cut.InvoluntaryReleases != 1 {
		t.Fatalf("lease-cut run: involuntary=%d, want 1", cut.InvoluntaryReleases)
	}
	if cutDelay >= baseDelay {
		t.Fatalf("100%% lease cut did not shorten the probe deferral: %d vs %d cycles",
			cutDelay, baseDelay)
	}
	// Determinism: the faulted run replays identically.
	again, againDelay := run(100)
	if !reflect.DeepEqual(cut, again) || againDelay != cutDelay {
		t.Fatalf("lease-cut run not deterministic")
	}
}

// TestProtocolViolationErrorIsTyped: ProtocolViolationError formats with
// rule, core, and line so harness dumps are self-describing.
func TestProtocolViolationErrorIsTyped(t *testing.T) {
	err := &ProtocolViolationError{Rule: "pinned-set", Core: 3, Line: mem.LineOf(0x1c0),
		Detail: "L1 set fully pinned but lease table empty"}
	msg := err.Error()
	for _, want := range []string{"pinned-set", "core 3", "pinned"} {
		if !contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestMissMonotone: a line a thread found missing ahead of the event queue is
// still missing when its miss issues at the thread's local clock, because a
// core with no transaction outstanding gains a permission only from a grant.
// A hook that grants the line to the L1 in between must make the run fail
// under the miss-monotone rule instead of sending a request for a line the
// core holds.
func TestMissMonotone(t *testing.T) {
	m := New(testConfig(1))
	a := m.Direct().Alloc(8)
	cs := m.cores[0]
	m.Spawn(0, func(c *Ctx) {
		c.Work(100)
		c.Load(a) // not held at cycle 0, with the hook due first: issued at 100
	})
	cs.dom.At(50, func() { cs.l1.Install(mem.LineOf(a), cache.Shared) })
	defer m.Stop()
	defer func() {
		pe, _ := recover().(*sim.PanicError)
		if pe == nil {
			t.Fatal("a miss was issued for a line the core holds")
		}
		if v, _ := pe.Value.(*ProtocolViolationError); v == nil || v.Rule != "miss-monotone" || pe.Cycle != 100 {
			t.Fatalf("run failed at cycle %d with %v, want rule miss-monotone at 100", pe.Cycle, pe.Value)
		}
	}()
	_ = m.Drain()
}
