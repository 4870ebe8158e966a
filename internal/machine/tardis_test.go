package machine

import (
	"fmt"
	"testing"

	"leaserelease/internal/coherence"
	"leaserelease/internal/faults"
	"leaserelease/internal/mem"
)

// tardisConfig returns the standard test config on the Tardis backend.
func tardisConfig(cores int) Config {
	cfg := testConfig(cores)
	cfg.Protocol = coherence.ProtocolTardis
	return cfg
}

func TestTardisCrossCorePropagation(t *testing.T) {
	m := New(tardisConfig(2))
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
	if err := m.VerifyCoherence(); err != nil {
		t.Fatal(err)
	}
}

func TestTardisCASAtomicUnderContention(t *testing.T) {
	const cores, per = 8, 50
	m := New(tardisConfig(cores))
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
	if err := m.VerifyCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestTardisRenewalAndRTSJump exercises the two timestamp-native paths: a
// re-read of an unwritten line after the reservation lapses is served as a
// tag-only renewal, and a write under an active read reservation commits
// by jumping its logical time past rts instead of invalidating.
func TestTardisRenewalAndRTSJump(t *testing.T) {
	m := New(tardisConfig(2))
	a := m.Direct().Alloc(8)
	b := m.Direct().Alloc(128) // separate line from a
	m.Spawn(0, func(c *Ctx) {
		c.Load(b)    // take a read reservation on b's line
		c.Work(3000) // outlive the default 2000-cycle reservation
		c.Load(b)    // line unwritten since: tag-only renewal
	})
	m.Spawn(50, func(c *Ctx) {
		c.Load(a) // reservation on a's line...
		c.Work(200)
		c.Store(a, 7) // ...written under it: rts jump, no invalidation
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Renewals == 0 {
		t.Fatalf("re-read of unwritten line not served as renewal: %+v", s)
	}
	if s.RTSJumps == 0 {
		t.Fatalf("write under an active reservation did not jump rts: %+v", s)
	}
	if s.Msgs[coherence.MsgInval] != 0 {
		t.Fatalf("Tardis sent %d invalidation messages; reservations must expire silently",
			s.Msgs[coherence.MsgInval])
	}
	if m.Peek(a) != 7 {
		t.Fatalf("final value %d, want 7", m.Peek(a))
	}
	if err := m.VerifyCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestTardisLeaseDefersProbe mirrors the MSI test: the paper's core-side
// lease machinery (probe deferral, voluntary release) works unchanged on
// the timestamp backend.
func TestTardisLeaseDefersProbe(t *testing.T) {
	m := New(tardisConfig(2))
	a := m.Direct().Alloc(8)
	var casOK bool
	var storeDone, releaseAt uint64
	m.Spawn(0, func(c *Ctx) {
		c.Lease(a, 10000)
		v := c.Load(a)
		c.Work(3000)
		casOK = c.CAS(a, v, v+1)
		c.Release(a)
		releaseAt = c.Now()
	})
	m.Spawn(100, func(c *Ctx) {
		c.Store(a, 99)
		storeDone = c.Now()
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if !casOK {
		t.Fatal("CAS inside leased window failed")
	}
	if storeDone < releaseAt {
		t.Fatalf("probing store completed at %d, before release at %d", storeDone, releaseAt)
	}
	if m.Peek(a) != 99 {
		t.Fatalf("final value %d, want 99", m.Peek(a))
	}
	if m.Stats().DeferredProbes != 1 {
		t.Fatalf("deferred probes = %d, want 1", m.Stats().DeferredProbes)
	}
}

// TestTardisLeaseMapsToRTS checks the lease<->rts mapping: a started lease
// extends the owned line's rts to cover the lease window, and a voluntary
// release truncates the extension back down. The lease starts with the
// grant, a moment before the line's commit in the same cycle, and the
// extension has to survive that order; the thread samples the directory a
// cycle later, after a Fence.
func TestTardisLeaseMapsToRTS(t *testing.T) {
	m := New(tardisConfig(1))
	a := m.Direct().Alloc(8)
	line := mem.LineOf(a)
	var grantAt, rtsUnderLease, rtsAfterRelease uint64
	m.Spawn(0, func(c *Ctx) {
		c.Lease(a, 10000)
		grantAt = c.Now()
		c.Work(1)
		c.Fence()
		rtsUnderLease = m.proto.View(line).RTS
		c.Store(a, 1)
		c.Release(a)
		rtsAfterRelease = m.proto.View(line).RTS
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	// grantAt is read a cycle or two after the grant committed, so allow
	// that much slack on the window check.
	if rtsUnderLease+16 < grantAt+10000 {
		t.Fatalf("rts %d under lease does not cover the lease window (grant %d + 10000)",
			rtsUnderLease, grantAt)
	}
	if rtsAfterRelease >= rtsUnderLease {
		t.Fatalf("release did not truncate rts: %d -> %d", rtsUnderLease, rtsAfterRelease)
	}
}

// TestTardisInvoluntaryExpiry: MAX_LEASE_TIME still bounds a never-released
// lease on the timestamp backend, and the deferred probe is then serviced.
func TestTardisInvoluntaryExpiry(t *testing.T) {
	cfg := tardisConfig(2)
	cfg.Lease.MaxLeaseTime = 2000
	m := New(cfg)
	a := m.Direct().Alloc(8)
	var leaseStart, storeDone uint64
	m.Spawn(0, func(c *Ctx) {
		c.Lease(a, 1e9) // clamped to 2000
		leaseStart = c.Now()
		c.Work(50000)
		c.Release(a)
	})
	m.Spawn(100, func(c *Ctx) {
		c.Store(a, 1)
		storeDone = c.Now()
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
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

// TestTardisPreemptionFeedsController closes the loop of satellite 4:
// preemption faults force involuntary releases under Tardis, and those
// feed the AIMD lease-duration controller exactly as under MSI.
func TestTardisPreemptionFeedsController(t *testing.T) {
	cfg := tardisConfig(2)
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
}

func TestTardisDeterminismAcrossRuns(t *testing.T) {
	run := func() (Stats, uint64) {
		m := New(tardisConfig(4))
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

// TestTardisStateDump: dumps name the protocol and carry the per-line
// timestamp section (satellite 2).
func TestTardisStateDump(t *testing.T) {
	m := New(tardisConfig(2))
	a := m.Direct().Alloc(8)
	m.Spawn(0, func(c *Ctx) { c.Store(a, 1); c.Load(a) })
	m.Spawn(0, func(c *Ctx) { c.Load(a) })
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	d := m.DumpState()
	if d.Protocol != coherence.ProtocolTardis {
		t.Fatalf("dump protocol = %q, want %q", d.Protocol, coherence.ProtocolTardis)
	}
	found := false
	for _, l := range d.DirLines {
		if l.WTS > 0 || l.RTS > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no dumped line carries timestamps: %+v", d.DirLines)
	}
	if ds := d.String(); ds == "" {
		t.Fatal("empty dump rendering")
	}
}

func TestUnknownProtocolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an unknown protocol")
		}
	}()
	cfg := testConfig(1)
	cfg.Protocol = "mesif"
	New(cfg)
}
