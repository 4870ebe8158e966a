package faults

import (
	"reflect"
	"testing"

	"leaserelease/internal/sim"
)

// TestDisabledConfigYieldsNilInjector: a configuration that injects nothing
// is the nil injector, and every nil method returns the no-fault value with
// zero stats — the zero-overhead path clean runs depend on.
func TestDisabledConfigYieldsNilInjector(t *testing.T) {
	if inj := New(Config{}, 1); inj != nil {
		t.Fatal("New with zero Config returned a non-nil injector")
	}
	// A preemption rate without a duration preempts nothing.
	if inj := New(Config{Seed: 7, PreemptPermille: 10}, 1); inj != nil {
		t.Fatal("New with PreemptPermille but no PreemptMax returned a non-nil injector")
	}
	var inj *Injector
	if d := inj.MsgDelay(); d != 0 {
		t.Fatalf("nil MsgDelay = %d, want 0", d)
	}
	if d := inj.DirStall(); d != 0 {
		t.Fatalf("nil DirStall = %d, want 0", d)
	}
	if c := inj.LeaseCut(10_000); c != 0 {
		t.Fatalf("nil LeaseCut = %d, want 0", c)
	}
	if d := inj.Preempt(3, true); d != 0 {
		t.Fatalf("nil Preempt = %d, want 0", d)
	}
	if s := inj.Stats(); s != (Stats{}) {
		t.Fatalf("nil Stats = %+v, want zero", s)
	}
}

// TestPreemptDeterministicPerCore: a core's preemption schedule is a pure
// function of (seed, core, eligible-point count) — two injectors with the
// same seeds produce identical draw sequences regardless of the order
// cores interleave their points.
func TestPreemptDeterministicPerCore(t *testing.T) {
	cfg := Config{PreemptPermille: 100, PreemptMin: 100, PreemptMax: 5000}
	draw := func(order []int) map[int][]sim.Time {
		inj := New(cfg, 42)
		out := make(map[int][]sim.Time)
		for _, core := range order {
			out[core] = append(out[core], inj.Preempt(core, false))
		}
		return out
	}
	// Round-robin vs core-major orderings of the same per-core point counts.
	var rr, cm []int
	for i := 0; i < 60; i++ {
		rr = append(rr, i%3)
	}
	for c := 0; c < 3; c++ {
		for i := 0; i < 20; i++ {
			cm = append(cm, c)
		}
	}
	if a, b := draw(rr), draw(cm); !reflect.DeepEqual(a, b) {
		t.Fatal("per-core preemption schedule depends on interleaving")
	}
}

// TestPreemptDurationsInBounds: each delivered duration respects the
// [Min, Max] bounds, and preemption counts as no other fault.
func TestPreemptDurationsInBounds(t *testing.T) {
	cfg := Config{PreemptPermille: 300, PreemptMin: 200, PreemptMax: 3000}
	inj := New(cfg, 9)
	var count uint64
	for i := 0; i < 5000; i++ {
		d := inj.Preempt(i%8, i%3 == 0)
		if d == 0 {
			continue
		}
		if d < cfg.PreemptMin || d > cfg.PreemptMax {
			t.Fatalf("duration %d outside [%d, %d]", d, cfg.PreemptMin, cfg.PreemptMax)
		}
		count++
	}
	if count == 0 {
		t.Fatal("permille 300 over 5000 points delivered nothing")
	}
	if s := inj.Stats(); s != (Stats{}) {
		t.Fatalf("preemption counted as another fault: %+v", s)
	}
}

// TestPreemptTargetedSkipsNonHolders: targeted mode never preempts a
// non-holder and consumes no draw for one.
func TestPreemptTargetedSkipsNonHolders(t *testing.T) {
	cfg := Config{PreemptPermille: 1000, PreemptMin: 10, PreemptMax: 10, PreemptTargeted: true}
	inj := New(cfg, 5)
	if d := inj.Preempt(0, false); d != 0 {
		t.Fatalf("targeted mode preempted a non-holder for %d cycles", d)
	}
	if d := inj.Preempt(0, true); d == 0 {
		t.Fatal("permille 1000 did not preempt a holder")
	}
	// Interleaving ineligible points must not perturb the schedule.
	a := New(cfg, 6)
	b := New(cfg, 6)
	var da, db []sim.Time
	for i := 0; i < 50; i++ {
		a.Preempt(0, false) // ineligible: no draw
		da = append(da, a.Preempt(0, true))
		db = append(db, b.Preempt(0, true))
	}
	if !reflect.DeepEqual(da, db) {
		t.Fatal("ineligible points consumed draws in targeted mode")
	}
}

// TestProfileStrings: Profile is "" exactly for configs that inject
// nothing, and distinguishes targeted from untargeted schedules.
func TestProfileStrings(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{}, ""},
		{DefaultConfig(), "j8d5x40c10w2"},
		{Config{PreemptPermille: 10, PreemptMin: 500, PreemptMax: 40000}, "p10x500-40000"},
		{Config{PreemptPermille: 10, PreemptMin: 500, PreemptMax: 40000, PreemptTargeted: true}, "P10x500-40000"},
		{DefaultConfig().WithPreemption(), "j8d5x40c10w2p5x200-30000"},
		// PreemptMax == 0 disables preemption, so it must not tag.
		{Config{PreemptPermille: 10}, ""},
	}
	for _, c := range cases {
		if got := c.cfg.Profile(); got != c.want {
			t.Errorf("Profile(%+v) = %q, want %q", c.cfg, got, c.want)
		}
	}
}
