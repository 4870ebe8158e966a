package machine

import "testing"

// TestPredictorLearnsToIgnore: a site whose leases always expire
// involuntarily must get blacklisted once enabled.
func TestPredictorLearnsToIgnore(t *testing.T) {
	cfg := testConfig(2)
	cfg.Lease.MaxLeaseTime = 200
	cfg.Predictor = true
	m := New(cfg)
	a := m.Direct().Alloc(8)
	m.Spawn(0, func(c *Ctx) {
		for i := 0; i < 100; i++ {
			c.LeaseAt(42, a, 200)
			c.Load(a)
			c.Work(1000) // always outlives the lease
			c.Release(a)
		}
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.IgnoredLeases == 0 {
		t.Fatalf("predictor never ignored the always-expiring site: %+v", s)
	}
	if s.InvoluntaryReleases < predMinSamples {
		t.Fatalf("too few samples before judging: %d", s.InvoluntaryReleases)
	}
	// It must keep re-sampling occasionally rather than ignoring forever.
	if s.Leases < predMinSamples+1 {
		t.Fatalf("no probation re-samples: leases=%d", s.Leases)
	}
}

// TestPredictorLeavesGoodSitesAlone: voluntary-release sites are never
// skipped.
func TestPredictorLeavesGoodSitesAlone(t *testing.T) {
	cfg := testConfig(1)
	cfg.Predictor = true
	m := New(cfg)
	a := m.Direct().Alloc(8)
	m.Spawn(0, func(c *Ctx) {
		for i := 0; i < 100; i++ {
			c.LeaseAt(7, a, 20000)
			c.Load(a)
			c.Release(a)
		}
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.IgnoredLeases != 0 {
		t.Fatalf("predictor skipped a well-behaved site %d times", s.IgnoredLeases)
	}
	if s.Leases != 100 {
		t.Fatalf("leases = %d, want 100", s.Leases)
	}
}

// TestPredictorDisabledByDefault: with Enable=false nothing is skipped
// even for pathological sites.
func TestPredictorDisabledByDefault(t *testing.T) {
	cfg := testConfig(1)
	cfg.Lease.MaxLeaseTime = 100
	m := New(cfg)
	a := m.Direct().Alloc(8)
	m.Spawn(0, func(c *Ctx) {
		for i := 0; i < 50; i++ {
			c.LeaseAt(9, a, 100)
			c.Work(500)
			c.Release(a)
		}
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if s := m.Stats(); s.IgnoredLeases != 0 || s.Leases != 50 {
		t.Fatalf("disabled predictor interfered: %+v", s)
	}
}

// TestPredictorRecoversThroughput: the improper long-critical-section
// pattern (CS > MAX_LEASE_TIME) wastes probe-deferral time; with the
// predictor the workload converges back toward base throughput.
func TestPredictorRecoversThroughput(t *testing.T) {
	run := func(enable bool) uint64 {
		cfg := testConfig(4)
		cfg.Lease.MaxLeaseTime = 300
		cfg.Predictor = enable
		m := New(cfg)
		a := m.Direct().Alloc(8)
		var ops uint64
		for i := 0; i < 4; i++ {
			m.Spawn(0, func(c *Ctx) {
				for {
					c.LeaseAt(1, a, 300)
					v := c.Load(a)
					c.Work(1500) // lease always expires mid-window
					c.CAS(a, v, v+1)
					c.Release(a)
					ops++
				}
			})
		}
		if err := m.Run(400000); err != nil {
			t.Fatal(err)
		}
		m.Stop()
		return ops
	}
	off, on := run(false), run(true)
	if on < off {
		t.Fatalf("predictor made things worse: %d vs %d ops", on, off)
	}
}
