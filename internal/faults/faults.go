// Package faults is the simulator's fault-injection layer: deterministic,
// protocol-legal perturbations of the simulated hardware, in the spirit of
// the perturbation-based validation used for hardware coherence protocols
// (e.g. Tardis's model-checked validation runs).
//
// Every perturbation stays within what the architecture already permits —
// message latencies only grow, lease durations only shrink, the directory
// only delays (never reorders) its per-line FIFO queues, and capacity
// pressure only reduces the L1's effective associativity. A correct
// simulator must therefore survive any fault schedule with every invariant
// intact; the invariant package checks exactly that.
//
// All draws come from one splitmix64 stream seeded from the simulation
// seed, and the engine is sequential, so a faulty run is bit-for-bit
// reproducible from (Config, seed). A config that injects nothing — its
// Profile is "" — builds no injector, so no draw is ever made and simulated
// timing is byte-for-byte identical to a build without this package.
package faults

import (
	"fmt"
	"strings"

	"leaserelease/internal/sim"
)

// Config selects which faults to inject and how hard. The zero value
// injects nothing.
type Config struct {
	// Seed is mixed with the machine seed to derive the injection stream,
	// so the same workload seed can be run under many fault schedules.
	Seed uint64

	// MsgJitter adds a uniform 0..MsgJitter extra cycles to every
	// coherence message hop (requests, probe forwards, grants), on top of
	// the protocol's own NetJitter.
	MsgJitter sim.Time

	// DirStallPct is the percent chance (0..100) that the directory stalls
	// before servicing a line's next queued request; DirStallCycles is the
	// stall length. FIFO order per line is preserved.
	DirStallPct    int
	DirStallCycles sim.Time

	// LeaseCutPct is the percent chance (0..100) that a started lease's
	// expiry timer fires early — an involuntary break before the full
	// duration. The cut point is uniform in (0, duration). Shorter leases
	// are always legal (MAX_LEASE_TIME is an upper bound).
	LeaseCutPct int

	// CapacityWays, when positive and below the configured associativity,
	// caps the L1's ways (shrinking capacity proportionally) to force
	// eviction and fully-pinned-set pressure on the lease machinery.
	CapacityWays int

	// PreemptPermille is the per-preemption-point chance (0..1000) that a
	// core is descheduled by the "OS": the proc stops issuing events for
	// the drawn duration while its lease timers keep counting down in the
	// (still-powered) cache hardware, so held leases expire involuntarily.
	// Preemption points are memory-access boundaries (see machine.Ctx).
	PreemptPermille int

	// PreemptMin/PreemptMax bound the uniformly drawn preemption duration
	// in cycles. PreemptMax == 0 disables preemption regardless of
	// PreemptPermille.
	PreemptMin, PreemptMax sim.Time

	// PreemptTargeted restricts preemption to "holders": cores that hold
	// at least one lease, or are issuing an exclusive (write) access —
	// the adversarial stalled-holder schedule, which maximizes the time
	// victims wait behind the preempted core.
	PreemptTargeted bool
}

// DefaultConfig returns a moderate all-faults-on schedule used by the
// chaos-soak tests and `leasebench -cell … -faults`.
func DefaultConfig() Config {
	return Config{
		MsgJitter:      8,
		DirStallPct:    5,
		DirStallCycles: 40,
		LeaseCutPct:    10,
		CapacityWays:   2,
	}
}

// WithPreemption returns c with a moderate core-preemption schedule added:
// ~0.5% of preemption points descheduled for 200..30K cycles, untargeted.
// Used by the chaos soak's preemption profiles; the degradation experiments
// configure the fields directly.
func (c Config) WithPreemption() Config {
	c.PreemptPermille = 5
	c.PreemptMin = 200
	c.PreemptMax = 30_000
	return c
}

// Stats counts injected faults; exported fields so harnesses can report
// how much perturbation a run actually received. Nothing marshals it: the
// json tags stay because machine.StateDump prints it with %+v, a read of
// every field that TestExportsAreReached cannot see, and a tag exempts a
// field from that audit.
type Stats struct {
	MsgDelays      uint64 `json:"msg_delays"`
	MsgDelayCycles uint64 `json:"msg_delay_cycles"`
	DirStalls      uint64 `json:"dir_stalls"`
	DirStallCycles uint64 `json:"dir_stall_cycles"`
	LeaseCuts      uint64 `json:"lease_cuts"`
	LeaseCutCycles uint64 `json:"lease_cut_cycles"`
}

// Injector draws fault decisions from a deterministic stream. A nil
// *Injector is valid and inert: every method returns the no-fault value,
// so emit sites need no separate enabled checks.
type Injector struct {
	cfg   Config
	seed  uint64 // machine seed, kept to derive per-core preempt streams
	rng   sim.RNG
	prng  []sim.RNG // per-core preemption streams, grown on first use
	stats Stats
}

// New builds an injector for cfg, mixing machineSeed into the stream.
// It returns nil when cfg injects nothing (its Profile is "") — the nil
// injector is the zero-overhead disabled configuration.
func New(cfg Config, machineSeed uint64) *Injector {
	if cfg.Profile() == "" {
		return nil
	}
	return &Injector{cfg: cfg, seed: machineSeed,
		rng: sim.NewRNG((machineSeed*0x9E3779B1 + cfg.Seed) ^ 0xFA017FA01)}
}

// Stats returns a snapshot of the injection counters (zero for nil).
func (i *Injector) Stats() Stats {
	if i == nil {
		return Stats{}
	}
	return i.stats
}

// pct draws a percent check: true with probability p/100.
func (i *Injector) pct(p int) bool {
	if p <= 0 {
		return false
	}
	if p >= 100 {
		return true
	}
	return i.rng.Uint64n(100) < uint64(p)
}

// MsgDelay returns extra cycles to add to one coherence message hop.
func (i *Injector) MsgDelay() sim.Time {
	if i == nil || i.cfg.MsgJitter == 0 {
		return 0
	}
	d := i.rng.Uint64n(uint64(i.cfg.MsgJitter) + 1)
	if d > 0 {
		i.stats.MsgDelays++
		i.stats.MsgDelayCycles += d
	}
	return d
}

// DirStall returns a stall, in cycles, to insert before the directory
// services a line's next request (0 = no stall).
func (i *Injector) DirStall() sim.Time {
	if i == nil || i.cfg.DirStallCycles == 0 || !i.pct(i.cfg.DirStallPct) {
		return 0
	}
	i.stats.DirStalls++
	i.stats.DirStallCycles += uint64(i.cfg.DirStallCycles)
	return i.cfg.DirStallCycles
}

// LeaseCut returns how many cycles to cut from a started lease of the
// given duration (0 = run to the full deadline). The cut is uniform in
// [1, duration-1] so a cut lease still runs for at least one cycle.
func (i *Injector) LeaseCut(duration uint64) uint64 {
	if i == nil || duration < 2 || !i.pct(i.cfg.LeaseCutPct) {
		return 0
	}
	cut := 1 + i.rng.Uint64n(duration-1)
	i.stats.LeaseCuts++
	i.stats.LeaseCutCycles += cut
	return cut
}

// preemptRNG returns core's preemption stream, created on first use.
// Preemption draws come from per-core streams — not the shared fault
// stream — for two reasons: adding preemption to an existing schedule
// leaves every other fault's draw sequence (and so its byte-exact
// behaviour) unchanged, and each core's preemption schedule depends only
// on how many preemption points that core has passed, not on the global
// event interleaving.
func (i *Injector) preemptRNG(core int) *sim.RNG {
	for len(i.prng) <= core {
		id := uint64(len(i.prng))
		i.prng = append(i.prng, sim.NewRNG(
			(i.seed*0x9E3779B1+i.cfg.Seed)^(0xBADC0FFEE+id*0x9E3779B97F4A7C15)))
	}
	return &i.prng[core]
}

// Preempt draws one preemption decision at a core-local preemption point
// and returns the descheduled duration in cycles (0 = not preempted).
// holder reports whether the core currently holds a lease or is issuing
// an exclusive access; with PreemptTargeted only holders are eligible
// (ineligible points consume no draw, keeping each core's stream a pure
// function of its eligible-point count).
func (i *Injector) Preempt(core int, holder bool) sim.Time {
	if !i.MayPreempt(holder) {
		return 0
	}
	r := i.preemptRNG(core)
	if r.Uint64n(1000) >= uint64(i.cfg.PreemptPermille) {
		return 0
	}
	lo, hi := i.cfg.PreemptMin, i.cfg.PreemptMax
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	return lo + r.Uint64n(hi-lo+1)
}

// MayPreempt reports whether Preempt can return a preemption, or consume a
// draw, at a preemption point with the given holder status.
func (i *Injector) MayPreempt(holder bool) bool {
	return i != nil && i.cfg.PreemptPermille > 0 && i.cfg.PreemptMax != 0 &&
		(holder || !i.cfg.PreemptTargeted)
}

// CapWays returns the effective L1 associativity under capacity pressure:
// min(configured, CapacityWays) when the fault is on, ways otherwise.
func (c Config) CapWays(ways int) int {
	if c.CapacityWays <= 0 || c.CapacityWays >= ways {
		return ways
	}
	return c.CapacityWays
}

// Profile renders a compact, stable identifier of the fault schedule for
// grouping runs (report keys and labels): exactly what the config
// injects. One that injects nothing renders as "", so clean runs keep their
// unsuffixed keys.
func (c Config) Profile() string {
	var b strings.Builder
	if c.MsgJitter > 0 {
		fmt.Fprintf(&b, "j%d", c.MsgJitter)
	}
	if c.DirStallPct > 0 && c.DirStallCycles > 0 {
		fmt.Fprintf(&b, "d%dx%d", c.DirStallPct, c.DirStallCycles)
	}
	if c.LeaseCutPct > 0 {
		fmt.Fprintf(&b, "c%d", c.LeaseCutPct)
	}
	if c.CapacityWays > 0 {
		fmt.Fprintf(&b, "w%d", c.CapacityWays)
	}
	if c.PreemptPermille > 0 && c.PreemptMax > 0 {
		tag := "p"
		if c.PreemptTargeted {
			tag = "P" // targeted (holder-only) schedule
		}
		fmt.Fprintf(&b, "%s%dx%d-%d", tag, c.PreemptPermille, c.PreemptMin, c.PreemptMax)
	}
	return b.String()
}
