package machine

import (
	"testing"

	"leaserelease/internal/faults"
)

// TestControllerUnitLoop exercises the controller's closed loop directly:
// shrink on involuntary release, floor at ctrlMinDuration, regrow on clean
// releases, ceiling at MAX_LEASE_TIME, and clamping of later grants.
func TestControllerUnitLoop(t *testing.T) {
	lc := newLeaseController(true, 20_000)

	const site = 7
	if g, clamped := lc.grant(site, 20_000); g != 20_000 || clamped {
		t.Fatalf("first grant = %d (clamped=%v), want full 20000 unclamped", g, clamped)
	}
	// Involuntary releases halve the cap down to the floor.
	want := uint64(20_000)
	for i := 0; i < 10; i++ {
		shrank, _ := lc.record(site, false)
		next := want * ctrlShrinkNum / ctrlShrinkDen
		if next < ctrlMinDuration {
			next = ctrlMinDuration
		}
		if (next < want) != shrank {
			t.Fatalf("step %d: shrank=%v with cap %d -> %d", i, shrank, want, next)
		}
		want = next
		if got := lc.capOf(site); got != want {
			t.Fatalf("step %d: cap = %d, want %d", i, got, want)
		}
	}
	if lc.capOf(site) != ctrlMinDuration {
		t.Fatalf("cap %d did not floor at %d", lc.capOf(site), ctrlMinDuration)
	}
	// A grant is now clamped to the shrunken cap.
	if g, clamped := lc.grant(site, 20_000); g != ctrlMinDuration || !clamped {
		t.Fatalf("post-shrink grant = %d (clamped=%v), want %d clamped", g, clamped, ctrlMinDuration)
	}
	// Clean releases regrow toward (and stop at) MAX_LEASE_TIME.
	for i := 0; i < 200; i++ {
		lc.record(site, true)
	}
	if lc.capOf(site) != 20_000 {
		t.Fatalf("cap %d did not regrow to MAX_LEASE_TIME", lc.capOf(site))
	}
	if _, grew := lc.record(site, true); grew {
		t.Fatal("cap grew past MAX_LEASE_TIME")
	}
	// Requests below the cap pass through unclamped.
	if g, clamped := lc.grant(site, 1_000); g != 1_000 || clamped {
		t.Fatalf("small request = %d (clamped=%v), want 1000 unclamped", g, clamped)
	}
}

// TestControllerDisabledIsInert: when not enabled, grant/record are
// identity operations — the default path adds no behavior.
func TestControllerDisabledIsInert(t *testing.T) {
	lc := newLeaseController(false, 20_000)
	if g, clamped := lc.grant(1, 20_000); g != 20_000 || clamped {
		t.Fatal("disabled controller clamped a grant")
	}
	lc.record(1, false)
	if g, _ := lc.grant(1, 20_000); g != 20_000 {
		t.Fatal("disabled controller adapted a cap")
	}
}

// TestControllerShrinksUnderPreemption: machine-level closed loop. A
// leased site whose holder keeps getting descheduled past its lease
// accumulates involuntary releases; with the controller on, later grants
// at that site are clamped ever shorter (CtrlClamps/CtrlShrinks count),
// and the per-site cap observably decays below the requested duration.
func TestControllerShrinksUnderPreemption(t *testing.T) {
	cfg := testConfig(2)
	cfg.Controller = true
	cfg.Faults = faults.Config{PreemptPermille: 400,
		PreemptMin: 30_000, PreemptMax: 30_000, PreemptTargeted: true}
	m := New(cfg)
	a := m.Direct().Alloc(8)
	const site = 42
	for i := 0; i < 2; i++ {
		m.Spawn(0, func(c *Ctx) {
			for {
				c.LeaseAt(site, a, 5_000)
				c.Store(a, c.Load(a)+1)
				c.Release(a)
				c.Work(64)
			}
		})
	}
	if err := m.Run(500_000); err != nil {
		t.Fatal(err)
	}
	m.Stop()
	s := m.Stats()
	if s.InvoluntaryReleases == 0 {
		t.Fatalf("adversarial preemption caused no involuntary releases: %+v", s)
	}
	if s.CtrlShrinks == 0 {
		t.Fatalf("controller never shrank despite %d involuntary releases", s.InvoluntaryReleases)
	}
	if s.CtrlClamps == 0 {
		t.Fatal("controller never clamped a grant after shrinking")
	}
	decayed := false
	for _, cs := range m.cores {
		if c := cs.ctrl.capOf(site); c > 0 && c < 5_000 {
			decayed = true
		}
	}
	if !decayed {
		t.Fatal("no core's site cap decayed below the requested duration")
	}
}

// TestControllerRegrowsAfterCleanReleases: after shrinking, a run of
// voluntary releases regrows the cap (CtrlGrows counts), so transient
// preemption storms do not permanently cripple a site.
func TestControllerRegrowsAfterCleanReleases(t *testing.T) {
	cfg := testConfig(1)
	cfg.Controller = true
	m := New(cfg)
	a := m.Direct().Alloc(8)
	const site = 9
	m.Spawn(0, func(c *Ctx) {
		// One involuntary expiry (outlive the lease), then clean cycles.
		c.LeaseAt(site, a, 1_000)
		c.Store(a, 1)
		c.Work(2_000)
		c.ReleaseAll() // already expired: the timer recorded the shrink
		for i := 0; i < 50; i++ {
			c.LeaseAt(site, a, 1_000)
			c.Store(a, c.Load(a)+1)
			c.Release(a)
		}
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.CtrlShrinks == 0 {
		t.Fatalf("expiry did not shrink the site: %+v", s)
	}
	if s.CtrlGrows == 0 {
		t.Fatalf("clean releases did not regrow the site: %+v", s)
	}
	if got := m.cores[0].ctrl.capOf(site); got < 1_000 {
		t.Fatalf("cap %d did not recover to the requested duration", got)
	}
}
