package machine

import (
	"testing"

	"leaserelease/internal/faults"
	"leaserelease/internal/mem"
	"leaserelease/internal/telemetry"
)

func TestTraceEvents(t *testing.T) {
	cfg := testConfig(2)
	cfg.Lease.MaxLeaseTime = 500
	m := New(cfg)
	a := m.Direct().Alloc(8)
	var events []telemetry.Event
	m.Telemetry().Subscribe(telemetry.CatLease, func(e telemetry.Event) { events = append(events, e) })
	m.Spawn(0, func(c *Ctx) {
		c.Lease(a, 500)
		c.Load(a)
		c.Release(a) // voluntary
		c.Lease(a, 500)
		c.Work(2000) // expires
		c.Release(a)
	})
	m.Spawn(100, func(c *Ctx) {
		c.Store(a, 1) // probe is deferred behind the first lease
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	count := map[uint8]int{}
	for _, e := range events {
		count[e.Kind]++
	}
	if count[telemetry.LeaseCreated] != 2 || count[telemetry.LeaseStarted] != 2 {
		t.Fatalf("lease/start counts = %d/%d, want 2/2", count[telemetry.LeaseCreated], count[telemetry.LeaseStarted])
	}
	if count[telemetry.LeaseReleased] != 1 || count[telemetry.LeaseExpired] != 1 {
		t.Fatalf("vol/invol = %d/%d, want 1/1", count[telemetry.LeaseReleased], count[telemetry.LeaseExpired])
	}
	if count[telemetry.ProbeDeferred] != 1 {
		t.Fatalf("deferred = %d, want 1", count[telemetry.ProbeDeferred])
	}
	// Events must be time-ordered.
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatalf("trace out of order: %v then %v", events[i-1], events[i])
		}
	}
}

func TestTracerDisabledNoOverheadPath(t *testing.T) {
	m := New(testConfig(1))
	a := m.Direct().Alloc(8)
	m.Spawn(0, func(c *Ctx) {
		c.Lease(a, 1000)
		c.Release(a)
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err) // must not panic with nil tracer
	}
}

// An expiry reports the cycles the lease was held, like every other end of a
// lease, not the duration it was granted. The two differ once fault injection
// cuts leases short; then the ledger must book the cut remainder as unused.
func TestLeaseExpiredCarriesHold(t *testing.T) {
	cfg := testConfig(1)
	cfg.Faults = faults.Config{LeaseCutPct: 100}
	m := New(cfg)
	a := m.Direct().Alloc(8)
	started := map[mem.Line]uint64{}
	expired := 0
	m.Telemetry().Subscribe(telemetry.CatLease, func(e telemetry.Event) {
		switch e.Kind {
		case telemetry.LeaseStarted:
			started[e.Line] = e.Time
		case telemetry.LeaseExpired:
			expired++
			if hold := e.Time - started[e.Line]; e.Val != hold || hold >= 5000 {
				t.Errorf("lease started at %d expired at %d with Val %d, want the %d cycles held, under the 5000 granted",
					started[e.Line], e.Time, e.Val, hold)
			}
		}
	})
	ledger := telemetry.NewLedger()
	m.Telemetry().Subscribe(telemetry.CatLease, ledger.OnLease)
	m.Spawn(0, func(c *Ctx) {
		for i := 0; i < 3; i++ {
			c.Lease(a, 5000)
			c.Work(6000) // past the deadline: the (cut) timer ends the lease
			c.Release(a)
		}
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if expired != 3 {
		t.Fatalf("%d leases expired, want 3", expired)
	}
	if tot := ledger.Totals(); tot.UnusedCycles == 0 || tot.GrantedCycles != tot.UsedCycles+tot.UnusedCycles {
		t.Errorf("ledger booked %d granted, %d used, %d unused; want the cut cycles unused", tot.GrantedCycles, tot.UsedCycles, tot.UnusedCycles)
	}
}
