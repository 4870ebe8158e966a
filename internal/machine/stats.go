package machine

import (
	"fmt"
	"strings"

	"leaserelease/internal/coherence"
)

// Stats is a snapshot of the machine's hardware event counters. Subtract
// two snapshots (Sub) to measure a window. It marshals as a run report's
// "counters" object, in field order.
type Stats struct {
	Cycles uint64 `json:"cycles"` // simulated time of the snapshot

	L1Hits   uint64 `json:"l1_hits"`
	L1Misses uint64 `json:"l1_misses"`

	Msgs         coherence.MsgCounts `json:"msgs"`
	L2Accesses   uint64              `json:"l2_accesses"`
	DRAMAccesses uint64              `json:"dram_accesses"`

	Leases              uint64 `json:"leases"`       // Lease instructions that created an entry
	MultiLeases         uint64 `json:"multi_leases"` // MultiLease group acquisitions
	VoluntaryReleases   uint64 `json:"voluntary_releases"`
	InvoluntaryReleases uint64 `json:"involuntary_releases"` // lease timers expired
	EvictedLeases       uint64 `json:"evicted_leases"`       // FIFO-evicted by a newer lease (full table)
	ForcedReleases      uint64 `json:"forced_releases"`      // released to unpin a fully-pinned L1 set
	BrokenLeases        uint64 `json:"broken_leases"`        // broken by a regular request (prioritization)
	IgnoredLeases       uint64 `json:"ignored_leases"`       // skipped by the §5 speculative predictor
	DeferredProbes      uint64 `json:"deferred_probes"`      // probes queued at a leased core

	CASSuccesses uint64 `json:"cas_successes"`
	CASFailures  uint64 `json:"cas_failures"`

	MaxDirQueue int `json:"max_dir_queue"` // peak per-line directory queue occupancy

	// Preemption-fault and adaptive-controller counters; omitted when zero,
	// as clean runs leave them.
	Preemptions       uint64 `json:"preemptions,omitempty"`        // fault-injected core preemptions delivered
	PreemptedCycles   uint64 `json:"preempted_cycles,omitempty"`   // cycles cores spent descheduled
	HolderPreemptions uint64 `json:"holder_preemptions,omitempty"` // those that hit a lease holder or a write (not in String)
	CtrlClamps        uint64 `json:"ctrl_clamps,omitempty"`        // lease requests cut by the adaptive controller
	CtrlShrinks       uint64 `json:"ctrl_shrinks,omitempty"`       // controller cap shrinks (involuntary releases)
	CtrlGrows         uint64 `json:"ctrl_grows,omitempty"`         // controller cap regrowths (clean releases)

	// Timestamp-protocol counters; zero under MSI, and then omitted.
	Renewals uint64 `json:"renewals,omitempty"`  // Tardis tag-only timestamp renewals
	RTSJumps uint64 `json:"rts_jumps,omitempty"` // Tardis writes whose commit time jumped past rts
}

// TotalMsgs returns the total coherence message count.
func (s Stats) TotalMsgs() uint64 {
	var n uint64
	for _, m := range s.Msgs {
		n += m
	}
	return n
}

// EnergyNJ evaluates the energy model over the counted events.
func (s Stats) EnergyNJ(e EnergyModel) float64 {
	return e.MsgNJ*float64(s.TotalMsgs()) +
		e.L1NJ*float64(s.L1Hits+s.L1Misses) +
		e.L2NJ*float64(s.L2Accesses) +
		e.DRAMNJ*float64(s.DRAMAccesses)
}

// Sub returns the per-window delta s - prev. MaxDirQueue is not a counter
// and is carried over from s.
func (s Stats) Sub(prev Stats) Stats {
	d := s
	d.Cycles -= prev.Cycles
	d.L1Hits -= prev.L1Hits
	d.L1Misses -= prev.L1Misses
	for i := range d.Msgs {
		d.Msgs[i] -= prev.Msgs[i]
	}
	d.L2Accesses -= prev.L2Accesses
	d.DRAMAccesses -= prev.DRAMAccesses
	d.Leases -= prev.Leases
	d.MultiLeases -= prev.MultiLeases
	d.VoluntaryReleases -= prev.VoluntaryReleases
	d.InvoluntaryReleases -= prev.InvoluntaryReleases
	d.EvictedLeases -= prev.EvictedLeases
	d.ForcedReleases -= prev.ForcedReleases
	d.BrokenLeases -= prev.BrokenLeases
	d.IgnoredLeases -= prev.IgnoredLeases
	d.DeferredProbes -= prev.DeferredProbes
	d.Renewals -= prev.Renewals
	d.RTSJumps -= prev.RTSJumps
	d.CASSuccesses -= prev.CASSuccesses
	d.CASFailures -= prev.CASFailures
	d.Preemptions -= prev.Preemptions
	d.PreemptedCycles -= prev.PreemptedCycles
	d.HolderPreemptions -= prev.HolderPreemptions
	d.CtrlClamps -= prev.CtrlClamps
	d.CtrlShrinks -= prev.CtrlShrinks
	d.CtrlGrows -= prev.CtrlGrows
	return d
}

// String renders a compact multi-line summary.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d l1hit=%d l1miss=%d msgs=%d l2=%d dram=%d\n",
		s.Cycles, s.L1Hits, s.L1Misses, s.TotalMsgs(), s.L2Accesses, s.DRAMAccesses)
	fmt.Fprintf(&b, "leases=%d multi=%d volrel=%d involrel=%d evicted=%d forced=%d broken=%d ignored=%d deferred=%d\n",
		s.Leases, s.MultiLeases, s.VoluntaryReleases, s.InvoluntaryReleases,
		s.EvictedLeases, s.ForcedReleases, s.BrokenLeases, s.IgnoredLeases, s.DeferredProbes)
	fmt.Fprintf(&b, "cas ok=%d fail=%d maxdirq=%d", s.CASSuccesses, s.CASFailures, s.MaxDirQueue)
	// Preemption/controller counters appear only when active, so runs
	// without those features render byte-identically to older builds.
	if s.Preemptions > 0 || s.CtrlClamps > 0 || s.CtrlShrinks > 0 || s.CtrlGrows > 0 {
		fmt.Fprintf(&b, "\npreempt=%d (%d cycles) ctrl clamp=%d shrink=%d grow=%d",
			s.Preemptions, s.PreemptedCycles, s.CtrlClamps, s.CtrlShrinks, s.CtrlGrows)
	}
	// Timestamp-protocol counters likewise stay silent under MSI.
	if s.Renewals > 0 || s.RTSJumps > 0 {
		fmt.Fprintf(&b, "\nrenewals=%d rtsjumps=%d", s.Renewals, s.RTSJumps)
	}
	return b.String()
}
