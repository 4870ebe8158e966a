package invariant_test

import (
	"errors"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"leaserelease/internal/cache"
	"leaserelease/internal/coherence"
	"leaserelease/internal/faults"
	"leaserelease/internal/invariant"
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
	"leaserelease/internal/telemetry"
)

// chaosWorkload exercises every lease-path the checker watches: contended
// single leases, MultiLease groups, plain RMWs that probe leased lines,
// and deliberate lease-table overflow (FIFO eviction).
func chaosWorkload(c *machine.Ctx, shared []mem.Addr, iters int) {
	r := c.Rand()
	maxN := 8
	for i := 0; i < iters; i++ {
		a := shared[r.Intn(len(shared))]
		switch r.Intn(6) {
		case 0, 1, 2:
			c.Lease(a, 300+uint64(r.Intn(1200)))
			c.Store(a, c.Load(a)+1)
			c.Work(uint64(r.Intn(80)))
			c.Release(a)
		case 3:
			b := shared[r.Intn(len(shared))]
			if c.MultiLease(600, a, b) {
				c.Store(a, c.Load(b)+1)
				c.Work(uint64(r.Intn(60)))
				c.ReleaseAll()
			}
		case 4:
			c.FetchAdd(a, 1)
		case 5:
			// Overflow the lease table to force FIFO evictions.
			for j := 0; j < maxN+2 && j < len(shared); j++ {
				c.Lease(shared[j], 400)
			}
			c.Work(uint64(r.Intn(50)))
			c.ReleaseAll()
		}
		c.Work(uint64(r.Intn(30)))
	}
	c.ReleaseAll()
}

func runChaos(cfg machine.Config, threads, iters int, withChecker bool) (machine.Stats, uint64, *invariant.Checker, error) {
	m := machine.New(cfg)
	var chk *invariant.Checker
	if withChecker {
		chk = invariant.Attach(m)
	}
	d := m.Direct()
	shared := make([]mem.Addr, 12)
	for i := range shared {
		shared[i] = d.Alloc(8)
	}
	for t := 0; t < threads; t++ {
		m.Spawn(0, func(c *machine.Ctx) { chaosWorkload(c, shared, iters) })
	}
	err := m.Drain()
	if chk != nil {
		chk.CheckNow()
	}
	return m.Stats(), m.Now(), chk, err
}

func TestHealthyRunHasNoViolations(t *testing.T) {
	cfg := machine.DefaultConfig(4)
	_, _, chk, err := runChaos(cfg, 4, 120, true)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if chk.Checks == 0 {
		t.Fatal("checker observed no events — bus wiring broken")
	}
	if verr := chk.Err(); verr != nil {
		t.Fatalf("healthy run reported violations:\n%v", verr)
	}
}

func TestHealthyFaultRunHasNoViolations(t *testing.T) {
	cfg := machine.DefaultConfig(4)
	cfg.Faults = faults.DefaultConfig()
	_, _, chk, err := runChaos(cfg, 4, 120, true)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if verr := chk.Err(); verr != nil {
		t.Fatalf("fault-injected run reported violations (faults must stay protocol-legal):\n%v", verr)
	}
}

// TestCheckerZeroPerturbation is the acceptance regression: with faults
// disabled, a run with the checker attached must produce byte-for-byte
// the same timing and statistics as a run without it.
func TestCheckerZeroPerturbation(t *testing.T) {
	cfg := machine.DefaultConfig(4)
	s1, cyc1, _, err1 := runChaos(cfg, 4, 150, false)
	s2, cyc2, _, err2 := runChaos(cfg, 4, 150, true)
	if err1 != nil || err2 != nil {
		t.Fatalf("drain: %v / %v", err1, err2)
	}
	if cyc1 != cyc2 {
		t.Fatalf("checker changed simulated time: %d vs %d cycles", cyc1, cyc2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("checker changed machine statistics:\n  off: %+v\n  on:  %+v", s1, s2)
	}
}

// TestFaultRunsDeterministic: identical seeds must replay identically,
// fault injection included.
func TestFaultRunsDeterministic(t *testing.T) {
	cfg := machine.DefaultConfig(4)
	cfg.Faults = faults.DefaultConfig()
	cfg.Seed = 7
	s1, cyc1, chk1, err1 := runChaos(cfg, 4, 150, true)
	s2, cyc2, chk2, err2 := runChaos(cfg, 4, 150, true)
	if err1 != nil || err2 != nil {
		t.Fatalf("drain: %v / %v", err1, err2)
	}
	if cyc1 != cyc2 || !reflect.DeepEqual(s1, s2) {
		t.Fatalf("same seed, different run: %d vs %d cycles\n  %+v\n  %+v", cyc1, cyc2, s1, s2)
	}
	if chk1.Checks != chk2.Checks {
		t.Fatalf("same seed, different event streams: %d vs %d checks", chk1.Checks, chk2.Checks)
	}
}

// TestMutationSecondWriter corrupts a second core's L1 mid-run — the
// classic single-writer violation — and requires the checker to produce a
// structured diagnostic (violations + state dump), not a bare panic.
func TestMutationSecondWriter(t *testing.T) {
	cfg := machine.DefaultConfig(2)
	m := machine.New(cfg)
	chk := invariant.Attach(m)
	d := m.Direct()
	ctr := d.Alloc(8)
	line := mem.LineOf(ctr)

	m.Spawn(0, func(c *machine.Ctx) {
		for i := 0; i < 12; i++ {
			c.Lease(ctr, 2000)
			c.Store(ctr, c.Load(ctr)+1)
			c.Work(60)
			c.Release(ctr)
			c.Work(120)
		}
	})
	m.Spawn(0, func(c *machine.Ctx) {
		c.Work(900)
		c.Fence()
		// Deliberate corruption: a second writer appears without any
		// coherence transaction.
		m.L1(1).Install(line, cache.Modified)
		c.Work(4000)
	})
	if err := m.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	chk.CheckNow()

	err := chk.Err()
	if err == nil {
		t.Fatal("second writer went undetected")
	}
	var ierr *invariant.Error
	if !errors.As(err, &ierr) {
		t.Fatalf("Err() returned %T, want *invariant.Error", err)
	}
	found := false
	for _, v := range ierr.Violations {
		if v.Rule == "msi-agreement" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no msi-agreement violation in: %v", ierr.Violations)
	}
	if ierr.Dump == nil {
		t.Fatal("violation carries no state dump")
	}
	if !strings.Contains(ierr.Dump.String(), "core") {
		t.Fatal("dump renders empty")
	}
}

// TestMutationEventStream feeds the checker corrupt telemetry directly:
// time running backwards and a double probe deferral.
func TestMutationEventStream(t *testing.T) {
	cfg := machine.DefaultConfig(2)
	m := machine.New(cfg)
	chk := invariant.Attach(m)
	bus := m.Telemetry()
	l := mem.LineOf(0x40)

	bus.Emit(telemetry.CatLease, 0, telemetry.ProbeDeferred, l, telemetry.NoVal)
	bus.Emit(telemetry.CatLease, 0, telemetry.ProbeDeferred, l, telemetry.NoVal)

	err := chk.Err()
	if err == nil {
		t.Fatal("double deferral went undetected")
	}
	var ierr *invariant.Error
	if !errors.As(err, &ierr) {
		t.Fatalf("Err() returned %T", err)
	}
	if ierr.Violations[0].Rule != "proposition-1" {
		t.Fatalf("want proposition-1 violation, got %v", ierr.Violations[0])
	}
}

// TestChaosSoak runs the chaos workload under fault injection across many
// seeds with the checker attached, rotating through fault profiles that
// include core preemption (untargeted and targeted stalled-holder, with and
// without the adaptive lease controller) and, one profile round to the next,
// through both coherence protocols, so every profile meets MSI and Tardis.
// SOAK_SEEDS scales it up for CI (default kept small for the ordinary test
// run).
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	seeds := 24
	if s := os.Getenv("SOAK_SEEDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			seeds = n
		}
	}
	profiles := []struct {
		name string
		cfg  func(seed uint64) (faults.Config, bool)
	}{
		{"faults", func(seed uint64) (faults.Config, bool) {
			return faults.DefaultConfig(), false
		}},
		{"faults+preempt", func(seed uint64) (faults.Config, bool) {
			return faults.DefaultConfig().WithPreemption(), false
		}},
		{"faults+preempt-targeted", func(seed uint64) (faults.Config, bool) {
			fc := faults.DefaultConfig().WithPreemption()
			fc.PreemptTargeted = true
			return fc, false
		}},
		{"faults+preempt+controller", func(seed uint64) (faults.Config, bool) {
			return faults.DefaultConfig().WithPreemption(), true
		}},
	}
	for seed := 1; seed <= seeds; seed++ {
		p := profiles[seed%len(profiles)]
		proto := coherence.Protocols()[(seed/len(profiles))%2]
		cfg := machine.DefaultConfig(4)
		cfg.Protocol = proto
		cfg.Seed = uint64(seed)
		fc, ctrl := p.cfg(uint64(seed))
		fc.Seed = uint64(seed)
		cfg.Faults = fc
		cfg.Controller = ctrl
		_, _, chk, err := runChaos(cfg, 4, 60, true)
		if err != nil {
			t.Fatalf("seed %d (%s, %s): drain: %v", seed, p.name, proto, err)
		}
		if verr := chk.Err(); verr != nil {
			t.Fatalf("seed %d (%s, %s): invariant violations under fault injection:\n%v", seed, p.name, proto, verr)
		}
	}
}
