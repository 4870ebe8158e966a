package machine

import (
	"leaserelease/internal/cache"
	"leaserelease/internal/coherence"
	"leaserelease/internal/core"
	"leaserelease/internal/faults"
)

// Config describes a simulated machine. The defaults reproduce the paper's
// Table 1 system configuration.
type Config struct {
	// Cores is the number of simulated cores (= threads; one thread per
	// core, as in the paper's experiments). At most 64.
	Cores int

	// ClockHz is the core clock (Table 1: 1 GHz). Used only to convert
	// cycles to seconds when reporting throughput.
	ClockHz uint64

	// L1 sizes each core's private L1 data cache.
	L1 cache.Config

	// L1HitLat is the L1 access latency in cycles (Table 1: 1 cycle).
	L1HitLat uint64

	// Timing holds L2/directory/network/DRAM latencies.
	Timing coherence.Timing

	// Protocol selects the coherence protocol backend: "" or
	// coherence.ProtocolMSI for the directory MSI the paper evaluates on,
	// coherence.ProtocolTardis for Tardis-style timestamp coherence. New
	// panics on any other value (cmds validate before construction).
	Protocol string

	// Lease bounds the Lease/Release mechanism (MAX_LEASE_TIME,
	// MAX_NUM_LEASES).
	Lease core.Config

	// MESI enables MESI-style Exclusive-clean read fills (§8 "Other
	// Protocols"): a sole reader is granted exclusive state, making its
	// first write a silent upgrade.
	MESI bool

	// RegularBreaksLease enables the §5 prioritization optimization:
	// a non-lease ("regular") coherence request automatically breaks an
	// existing lease instead of being queued, while lease-initiated
	// requests still queue.
	RegularBreaksLease bool

	// SoftLeaseStagger is the X parameter of the software MultiLease
	// emulation (§4): the j-th outer lease is requested for time + j·X,
	// where X approximates the time to fulfil an ownership request.
	SoftLeaseStagger uint64

	// SoftLeaseOverhead charges the software MultiLease emulation's
	// per-line instruction cost (sorting, group-id bookkeeping) — the
	// "extra software operations" of §7 that make it slightly slower
	// than the hardware MultiLease.
	SoftLeaseOverhead uint64

	// Predictor enables the §5 speculative mechanism that ignores
	// leases at sites with frequent involuntary releases.
	Predictor bool

	// Controller enables the adaptive lease-duration controller:
	// per-site exponential backoff of granted durations after
	// involuntary releases, gradual regrowth on clean releases.
	Controller bool

	// Energy is the event-count energy model.
	Energy EnergyModel

	// Faults selects deterministic, protocol-legal fault injection
	// (latency perturbation, early lease expiry, directory stalls, L1
	// capacity pressure). The zero value injects nothing and adds no
	// overhead; see the faults package.
	Faults faults.Config

	// Seed derives each core's deterministic RNG stream (and, with
	// Faults.Seed, the fault-injection stream). The NetJitter stream is
	// seeded per protocol (0xD12EC7, 0x7A2D15), not from Seed: a seed
	// varies it only through arrival order.
	Seed uint64
}

// EnergyModel assigns an energy cost (nanojoules) to each counted event.
// The absolute values are synthetic; the paper's energy results track
// coherence messages and cache misses, which dominate here too.
type EnergyModel struct {
	MsgNJ  float64 // per coherence message
	L1NJ   float64 // per L1 access (hit or miss lookup)
	L2NJ   float64 // per L2 data access
	DRAMNJ float64 // per DRAM access
}

// DefaultEnergy returns plausible per-event energies for a 2016-era CMP.
func DefaultEnergy() EnergyModel {
	return EnergyModel{MsgNJ: 0.5, L1NJ: 0.1, L2NJ: 0.8, DRAMNJ: 15}
}

// DefaultConfig reproduces the paper's simulated system (Table 1) for the
// given core count: 1 GHz in-order cores, 32 KB 4-way L1 (1 cycle), shared
// L2 with 3/8-cycle tag/data, directory MSI, MAX_LEASE_TIME = 20K cycles.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:             cores,
		ClockHz:           1_000_000_000,
		L1:                cache.DefaultConfig(),
		L1HitLat:          1,
		Timing:            coherence.DefaultTiming(),
		Lease:             core.DefaultConfig(),
		SoftLeaseStagger:  50, // ≈ one ownership-request round trip
		SoftLeaseOverhead: 12, // sort + group bookkeeping per line
		Energy:            DefaultEnergy(),
		Seed:              1,
	}
}
