package machine

import (
	"reflect"
	"testing"

	"leaserelease/internal/faults"
	"leaserelease/internal/mem"
)

// preemptWorkload runs a contended leased counter on `cores` cores for
// `cycles` simulated cycles under the given fault config and returns the
// machine (stopped, ready for inspection).
func preemptWorkload(t *testing.T, cores int, cycles uint64, fc faults.Config) *Machine {
	t.Helper()
	cfg := testConfig(cores)
	cfg.Faults = fc
	m := New(cfg)
	a := m.Direct().Alloc(8)
	for i := 0; i < cores; i++ {
		m.Spawn(0, func(c *Ctx) {
			for {
				c.Lease(a, 5_000)
				c.Store(a, c.Load(a)+1)
				c.Release(a)
				c.Work(c.Rand().Uint64n(64))
			}
		})
	}
	if err := m.Run(cycles); err != nil {
		t.Fatal(err)
	}
	m.Stop()
	return m
}

// TestPreemptionZeroConfigIsNoOp: a preemption rate without a duration
// (which preempts nothing) leaves the run bit-identical to the fault-free
// one — the guarantee that keeps all existing golden outputs valid.
func TestPreemptionZeroConfigIsNoOp(t *testing.T) {
	clean := preemptWorkload(t, 4, 200_000, faults.Config{}).Stats()
	armed := preemptWorkload(t, 4, 200_000, faults.Config{PreemptPermille: 20}).Stats()
	if !reflect.DeepEqual(clean, armed) {
		t.Fatalf("a rate without a duration changed the run:\nclean: %+v\narmed: %+v", clean, armed)
	}
	if clean.Preemptions != 0 || clean.PreemptedCycles != 0 {
		t.Fatalf("fault-free run counted preemptions: %+v", clean)
	}
}

// TestPreemptionConservation: every preempted cycle is accounted once and
// identically in three places — the injector's delivery stats, the
// machine's hardware counters, and the per-core proc clocks surfaced in
// the state dump.
func TestPreemptionConservation(t *testing.T) {
	fc := faults.Config{PreemptPermille: 20, PreemptMin: 300, PreemptMax: 8_000}
	m := preemptWorkload(t, 4, 300_000, fc)

	ms := m.Stats()
	if ms.Preemptions == 0 {
		t.Fatal("preemption schedule delivered nothing; rate too low for the workload")
	}
	if ms.HolderPreemptions > ms.Preemptions {
		t.Fatalf("holder preemptions %d exceed preemptions %d", ms.HolderPreemptions, ms.Preemptions)
	}
	var dumpSum uint64
	for _, cd := range m.DumpState().Cores {
		dumpSum += cd.Preempted
	}
	if dumpSum != ms.PreemptedCycles {
		t.Fatalf("dump per-core preempted cycles sum %d != machine total %d", dumpSum, ms.PreemptedCycles)
	}
}

// TestPreemptionDeterminism: the same (config, seed) replays to identical
// counters, and a different fault seed gives a different schedule.
func TestPreemptionDeterminism(t *testing.T) {
	fc := faults.Config{PreemptPermille: 20, PreemptMin: 300, PreemptMax: 8_000}
	a := preemptWorkload(t, 4, 200_000, fc).Stats()
	b := preemptWorkload(t, 4, 200_000, fc).Stats()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("preempted run not deterministic:\n%+v\n%+v", a, b)
	}
	fc2 := fc
	fc2.Seed = 99
	c := preemptWorkload(t, 4, 200_000, fc2).Stats()
	if reflect.DeepEqual(a, c) {
		t.Fatal("different fault seed produced an identical run")
	}
}

// TestPreemptedHolderExpiresInvoluntarily: a lease holder descheduled for
// longer than its lease must lose it to the expiry timer (the cache
// hardware keeps counting while the core sleeps), and the victim's
// deferred probe must then be served — no deadlock.
func TestPreemptedHolderExpiresInvoluntarily(t *testing.T) {
	cfg := testConfig(2)
	// Deterministic adversary: preempt only holders, always, and sleep
	// far past the lease.
	cfg.Faults = faults.Config{PreemptPermille: 1000,
		PreemptMin: 50_000, PreemptMax: 50_000, PreemptTargeted: true}
	m := New(cfg)
	a := m.Direct().Alloc(8)
	var got uint64
	var voluntary bool
	m.Spawn(0, func(c *Ctx) {
		c.Lease(a, 10_000)
		// The store is a preemption point: the core is descheduled for
		// 50K cycles *before* the write lands, and the 10K lease expires
		// while it sleeps.
		c.Store(a, 41)
		voluntary = c.Release(a)
	})
	m.Spawn(100, func(c *Ctx) {
		got = c.FetchAdd(a, 1)
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Preemptions == 0 {
		t.Fatal("targeted always-on schedule never preempted the holder")
	}
	if s.InvoluntaryReleases == 0 {
		t.Fatalf("preempted holder's lease did not expire involuntarily: %+v", s)
	}
	// The victim drains at lease expiry (~10K), long before the holder
	// wakes (~50K): it reads the pre-store value, proving it waited only
	// for the lease bound, not the whole preemption.
	if got != 0 {
		t.Fatalf("victim read %d, want 0 (served at expiry, before the holder's write)", got)
	}
	if voluntary {
		t.Fatal("Release reported voluntary, but the lease expired during the preemption")
	}
	// The woken holder reacquires the line and its write lands last.
	if v := m.Direct().Load(a); v != 41 {
		t.Fatalf("final value %d, want 41 (holder's write after waking)", v)
	}
	if err := m.VerifyCoherence(); err != nil {
		t.Fatal(err)
	}
}

// TestStateDumpShowsHeldLeases: the dump lists currently-held leases with
// owner, grant cycle, and deadline — the satellite making StallError
// dumps actionable.
func TestStateDumpShowsHeldLeases(t *testing.T) {
	m := New(testConfig(1))
	a := m.Direct().Alloc(8)
	m.Spawn(0, func(c *Ctx) {
		c.Lease(a, 10_000)
		c.Store(a, 1)
		c.Work(500_000) // hold the lease while we dump
	})
	if err := m.Run(5_000); err != nil {
		t.Fatal(err)
	}
	d := m.DumpState()
	if len(d.Cores) != 1 || len(d.Cores[0].Leases) != 1 {
		t.Fatalf("dump shows %d cores / no held lease: %+v", len(d.Cores), d.Cores)
	}
	ld := d.Cores[0].Leases[0]
	if ld.Line != uint64(mem.LineOf(a)) {
		t.Fatalf("dump lease line %#x, want %#x", ld.Line, uint64(mem.LineOf(a)))
	}
	if !ld.Started || ld.Deadline == 0 || ld.GrantCycle >= ld.Deadline {
		t.Fatalf("dump lease window implausible: %+v", ld)
	}
	if ld.Deadline-ld.GrantCycle != ld.Duration {
		t.Fatalf("grant %d + duration %d != deadline %d", ld.GrantCycle, ld.Duration, ld.Deadline)
	}
	text := d.String()
	if !contains(text, "granted @") {
		t.Fatalf("dump text does not render the grant cycle:\n%s", text)
	}
	m.Stop()
}
