package machine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"leaserelease/internal/coherence"
	"leaserelease/internal/faults"
	"leaserelease/internal/mem"
)

// The tests below pin the proof obligations of the run-ahead hit in
// Ctx.access, one scenario per condition. Each reads the engine's
// syncs_skipped counter around single accesses of core 0, from inside its
// thread; another core ticks every cycle, so that something is always due
// and a Sync is never free.

const tickUntil = 2000

func runAheadMachine(cores int) *Machine {
	cfg := testConfig(cores)
	cfg.Timing.NetJitter = 0 // message times below are computed by hand
	return New(cfg)
}

func spawnTicker(m *Machine) {
	m.Spawn(0, func(c *Ctx) {
		for c.Now() < tickUntil {
			c.Work(1)
			c.Fence()
		}
	})
}

// ranAhead performs one load of a and reports whether it skipped its Sync.
func ranAhead(m *Machine, c *Ctx, a mem.Addr) bool {
	before := m.eng.Stats().SyncsSkipped
	c.Load(a)
	return m.eng.Stats().SyncsSkipped > before
}

// fenceAt parks the thread until cycle t, so that the engine's clock is t.
func fenceAt(c *Ctx, t uint64) {
	c.Work(t - c.Now())
	c.Fence()
}

// A forwarded probe (the other core loads a line this core holds Modified)
// or an invalidation (it stores to a line this core holds Shared) is queued
// for core 0 from the moment the directory serves the request, at cycle 215,
// until it lands at 233 = 215 + L2Tag + Net. A hit timed before 233 orders
// before it and runs ahead; one timed at 233 or later, attempted while the
// message is still queued, takes the slow path, though the line is still
// held. Core 0 tries its hits k cycles ahead of the engine, one run for each
// k short of a lookahead.
func TestRunAheadYieldsToInFlightProbe(t *testing.T) {
	const served, lands = 215, 233
	for _, tc := range []struct {
		name   string
		holdM  bool // core 0 holds the line Modified, and core 1 reads it
		stillS bool // core 0 keeps a readable copy afterwards
	}{
		{"probe", true, true},
		{"invalidation", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before, after := 0, 0
			for k := uint64(1); k < testConfig(1).Timing.Net; k++ {
				m := runAheadMachine(3)
				x := m.Direct().Alloc(8)
				type rec struct {
					now, at uint64
					took    bool
				}
				var recs []rec
				m.Spawn(0, func(c *Ctx) {
					if tc.holdM {
						c.Store(x, 1)
					} else {
						c.Load(x)
					}
					for c.Now() < 300 {
						c.Fence()
						now := m.eng.Now()
						c.Work(k)
						recs = append(recs, rec{now, c.Now(), ranAhead(m, c, x)})
					}
				})
				m.Spawn(0, func(c *Ctx) {
					c.Work(200)
					if tc.holdM {
						c.Load(x)
					} else {
						c.Store(x, 2)
					}
				})
				spawnTicker(m)
				if err := m.Drain(); err != nil {
					t.Fatal(err)
				}
				for _, r := range recs {
					queued := r.now >= served && r.now < lands
					switch {
					case queued && r.at >= lands:
						after++
						if r.took {
							t.Errorf("hit at cycle %d (engine at %d) ran ahead of the %s landing at %d", r.at, r.now, tc.name, lands)
						}
					case r.now > 150 && r.at < lands, r.now > 260 && tc.stillS:
						if queued {
							before++
						}
						if !r.took {
							t.Errorf("hit at cycle %d (engine at %d) took the slow path with nothing due by then", r.at, r.now)
						}
					}
				}
			}
			if before < 10 || after < 10 {
				t.Fatalf("%d hits timed before the %s landed and %d after it while it was queued; the scenario drifted", before, tc.name, after)
			}
		})
	}
}

// A started lease whose deadline is at or before the access's time means the
// core's own expiry timer is due first: slow path. Before the deadline, and
// once the timer has fired, hits run ahead — on the leased line too.
func TestRunAheadYieldsToLeaseDeadline(t *testing.T) {
	m := runAheadMachine(2)
	x := m.Direct().Alloc(8)
	var got []bool
	var deadline uint64
	m.Spawn(0, func(c *Ctx) {
		c.Lease(x, 100)
		deadline = m.cores[0].leases.Find(mem.LineOf(x)).Deadline
		fenceAt(c, deadline-5)
		c.Work(2)
		for i := 0; i < 5; i++ { // at deadline-3, -2, -1, deadline, deadline+1
			got = append(got, ranAhead(m, c, x))
		}
	})
	spawnTicker(m)
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, true, true, false, true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("run-ahead around the deadline (%d): %v, want %v", deadline, got, want)
	}
	if s := m.Stats(); s.InvoluntaryReleases != 1 {
		t.Fatalf("%d involuntary releases, want 1", s.InvoluntaryReleases)
	}
}

// A hit timed at or beyond Run's stop time belongs to the next Run, and one
// a full lookahead or more ahead of the engine's clock has no guarantee.
func TestRunAheadStaysInsideHorizonAndLookahead(t *testing.T) {
	const until = 500
	m := runAheadMachine(2)
	x := m.Direct().Alloc(8)
	var got []bool
	m.Spawn(0, func(c *Ctx) {
		c.Store(x, 1)
		fenceAt(c, until-3)
		c.Work(1)
		for i := 0; i < 3; i++ { // at until-2, until-1, until
			got = append(got, ranAhead(m, c, x))
		}
		net := m.cfg.Timing.Net
		c.Fence()
		c.Work(net - 1)
		got = append(got, ranAhead(m, c, x))
		c.Fence()
		c.Work(net)
		got = append(got, ranAhead(m, c, x))
	})
	spawnTicker(m)
	if err := m.Run(until); err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, true}; !reflect.DeepEqual(got, want) {
		t.Fatalf("before the stop time: %v, want %v (the third access is parked)", got, want)
	}
	hits := m.Stats().L1Hits
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, true, false, true, false}; !reflect.DeepEqual(got, want) {
		t.Fatalf("run-ahead: %v, want %v", got, want)
	}
	if m.Stats().L1Hits <= hits {
		t.Fatal("the access parked at the stop time was not performed by the next Run")
	}
}

// The certificate is Timing.Net > 0 and nothing else: hits run ahead under
// either protocol, with or without the fault injector, and never on a machine
// whose messages may take no time at all.
func TestRunAheadNeedsCertificate(t *testing.T) {
	for name, mod := range map[string]func(*Config){
		"msi":           func(*Config) {},
		"tardis":        func(c *Config) { c.Protocol = coherence.ProtocolTardis },
		"faults":        func(c *Config) { c.Faults = faults.DefaultConfig() },
		"tardis+faults": func(c *Config) { c.Protocol, c.Faults = coherence.ProtocolTardis, faults.DefaultConfig() },
		"net0":          func(c *Config) { c.Timing.Net = 0 },
	} {
		cfg := testConfig(2)
		mod(&cfg)
		m := New(cfg)
		x := m.Direct().Alloc(8)
		m.Spawn(0, func(c *Ctx) {
			c.Store(x, 1) // an owner's copy: private under Tardis too
			for i := 0; i < 100; i++ {
				c.Work(2)
				c.Load(x)
			}
		})
		spawnTicker(m)
		if err := m.Drain(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := m.EngineStats()
		if st.Lookahead != cfg.Timing.Net || (name != "net0") != (st.SyncsSkipped > 0) {
			t.Errorf("%s: lookahead %d, %d syncs skipped", name, st.Lookahead, st.SyncsSkipped)
		}
	}
}

// The engine holds every configuration to the lookahead New declared: a
// message onto another domain closer than Timing.Net panics in push, on a
// Tardis machine and a faulted one as on plain MSI (internal/sim's
// TestLookaheadEnforced shows it on a bare engine).
func TestLookaheadEnforcedOnEveryMachine(t *testing.T) {
	for name, mod := range map[string]func(*Config){
		"msi":    func(*Config) {},
		"tardis": func(c *Config) { c.Protocol = coherence.ProtocolTardis },
		"faults": func(c *Config) { c.Faults = faults.DefaultConfig() },
	} {
		cfg := testConfig(2)
		mod(&cfg)
		m := New(cfg)
		sys, core1 := m.eng.Sys(), m.cores[1].dom
		sys.CrossAt(core1, cfg.Timing.Net, func() {}) // a full hop: accepted
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "lookahead violation") {
					t.Errorf("%s: a message %d cycles ahead got %v, want a lookahead violation", name, cfg.Timing.Net-1, r)
				}
			}()
			sys.CrossAt(core1, cfg.Timing.Net-1, func() {})
		}()
	}
}

// Under Tardis a store does not invalidate a reader's Shared copy: it
// commits past the reader's reservation, and the reader goes on reading the
// word until the reservation lapses, with no message between the two. So a
// writer's store may not run ahead of a live reservation on its line. Here
// one thread only stores, so no lapse notice is ever queued for its domain,
// and the other re-reads the line every cycle: the reader's (cycle, value)
// log must be the one every access through Sync gives. MSI, which
// invalidates the reader first, gives it too.
func TestRunAheadTardisStoreUnderReservation(t *testing.T) {
	type read struct{ at, v uint64 }
	run := func(proto string, forced bool) []read {
		cfg := testConfig(2)
		cfg.Protocol = proto
		m := New(cfg)
		x := m.Direct().Alloc(8)
		var log []read
		m.Spawn(0, func(c *Ctx) {
			for i := 0; i < 400; i++ {
				c.Work(1)
				at := c.Now()
				log = append(log, read{at, c.Load(x)})
			}
		})
		m.Spawn(0, func(c *Ctx) {
			for v := uint64(1); v <= 40; v++ {
				c.Work(11)
				c.Store(x, v)
			}
		})
		if forced {
			ForceSync(m)
		}
		if err := m.Drain(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	for _, proto := range coherence.Protocols() {
		got, want := run(proto, false), run(proto, true)
		if len(got) != len(want) {
			t.Fatalf("%s: %d reads, %d through Sync", proto, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: read %d at cycle %d returned %d; through Sync, at cycle %d, %d",
					proto, i+1, got[i].at, got[i].v, want[i].at, want[i].v)
			}
		}
	}
}
