package bench

import (
	"fmt"

	"leaserelease/internal/coherence"
	"leaserelease/internal/machine"
	"leaserelease/internal/sim"
	"leaserelease/internal/telemetry"
)

// Report is the machine-readable summary of one run, as emitted by
// `leasesim -json`. Field order and types are stable: for a fixed seed
// and configuration the marshaled report is byte-for-byte reproducible.
type Report struct {
	DS           string `json:"ds"`
	Threads      int    `json:"threads"`
	Lease        bool   `json:"lease"`
	Seed         uint64 `json:"seed"`
	WarmCycles   uint64 `json:"warm_cycles"`
	WindowCycles uint64 `json:"window_cycles"`

	// FaultProfile is the compact fault-schedule identifier
	// (faults.Config.Profile) of a fault-injected run; empty — and
	// omitted, keeping clean reports byte-identical — otherwise. Part of
	// Key, so -compare never matches a faulted run against a clean one.
	FaultProfile string `json:"fault_profile,omitempty"`

	// Protocol names the coherence protocol backend of a non-default run
	// ("tardis"); empty — and omitted, keeping MSI reports byte-identical
	// — for the default directory MSI. Part of Key.
	Protocol string `json:"protocol,omitempty"`

	Ops           uint64  `json:"ops"`
	MopsPerSec    float64 `json:"mops_per_sec"`
	NJPerOp       float64 `json:"nj_per_op"`
	MissesPerOp   float64 `json:"l1_misses_per_op"`
	MsgsPerOp     float64 `json:"msgs_per_op"`
	CASFailsPerOp float64 `json:"cas_fails_per_op"`
	Fairness      float64 `json:"fairness"`
	Aborts        uint64  `json:"tl2_aborts,omitempty"`

	OpLatency  *telemetry.Summary `json:"op_latency_cycles,omitempty"`
	LeaseHold  *telemetry.Summary `json:"lease_hold_cycles,omitempty"`
	ProbeDefer *telemetry.Summary `json:"probe_defer_cycles,omitempty"`
	DirQueue   *telemetry.Summary `json:"dir_queue_occupancy,omitempty"`

	// Txns is the coherence-transaction cycle accounting (span tracing).
	Txns *telemetry.TxnSummary `json:"txn_accounting,omitempty"`

	// LeaseLedger is the lease-efficiency accounting (-ledger), with the
	// ranked lines joined against the hot-line contention profile.
	LeaseLedger *LedgerReport `json:"lease_ledger,omitempty"`

	Counters Counters     `json:"counters"`
	HotLines []HotLineRow `json:"hot_lines,omitempty"`

	TimelineFile string `json:"timeline_file,omitempty"`

	// EngineStats is the event kernel's host-side counters for the run
	// (machine.Machine.EngineStats): how the host executed it, never what
	// it simulated. BuildReport leaves it nil; leasesim copies
	// Result.EngineStats.
	EngineStats *sim.EngineStats `json:"engine_stats,omitempty"`

	// Error is set when the run failed (see Result.Err); the metric
	// fields above are zero then. Omitted on success, so successful
	// reports marshal byte-for-byte as before.
	Error string `json:"error,omitempty"`
}

// Key names the report's whole configuration —
// "<ds>/t<threads>/<lease|nolease>/s<seed>[/f<fault profile>][/p<protocol>]"
// — the spelling `leasebench -compare` matches and labels runs by.
func (r *Report) Key() string {
	mode := "nolease"
	if r.Lease {
		mode = "lease"
	}
	key := fmt.Sprintf("%s/t%d/%s/s%d", r.DS, r.Threads, mode, r.Seed)
	if r.FaultProfile != "" {
		key += "/f" + r.FaultProfile
	}
	if r.Protocol != "" {
		key += "/p" + r.Protocol
	}
	return key
}

// Counters is machine.Stats with JSON-friendly names and messages broken
// out per kind.
type Counters struct {
	Cycles              uint64            `json:"cycles"`
	L1Hits              uint64            `json:"l1_hits"`
	L1Misses            uint64            `json:"l1_misses"`
	Msgs                map[string]uint64 `json:"msgs"`
	L2Accesses          uint64            `json:"l2_accesses"`
	DRAMAccesses        uint64            `json:"dram_accesses"`
	Leases              uint64            `json:"leases"`
	MultiLeases         uint64            `json:"multi_leases"`
	VoluntaryReleases   uint64            `json:"voluntary_releases"`
	InvoluntaryReleases uint64            `json:"involuntary_releases"`
	EvictedLeases       uint64            `json:"evicted_leases"`
	ForcedReleases      uint64            `json:"forced_releases"`
	BrokenLeases        uint64            `json:"broken_leases"`
	IgnoredLeases       uint64            `json:"ignored_leases"`
	DeferredProbes      uint64            `json:"deferred_probes"`
	CASSuccesses        uint64            `json:"cas_successes"`
	CASFailures         uint64            `json:"cas_failures"`
	MaxDirQueue         int               `json:"max_dir_queue"`

	// Preemption-fault and adaptive-controller counters; omitted when
	// zero so clean-run reports stay byte-identical to older builds.
	Preemptions     uint64 `json:"preemptions,omitempty"`
	PreemptedCycles uint64 `json:"preempted_cycles,omitempty"`
	CtrlClamps      uint64 `json:"ctrl_clamps,omitempty"`
	CtrlShrinks     uint64 `json:"ctrl_shrinks,omitempty"`
	CtrlGrows       uint64 `json:"ctrl_grows,omitempty"`

	// Timestamp-protocol counters (Tardis); zero and omitted under MSI.
	Renewals uint64 `json:"renewals,omitempty"`
	RTSJumps uint64 `json:"rts_jumps,omitempty"`
}

// CountersOf converts a Stats snapshot to report form.
func CountersOf(s machine.Stats) Counters {
	msgs := make(map[string]uint64, len(s.Msgs))
	for k, n := range s.Msgs {
		msgs[coherence.MsgKind(k).String()] = n
	}
	return Counters{
		Cycles: s.Cycles, L1Hits: s.L1Hits, L1Misses: s.L1Misses,
		Msgs: msgs, L2Accesses: s.L2Accesses, DRAMAccesses: s.DRAMAccesses,
		Leases: s.Leases, MultiLeases: s.MultiLeases,
		VoluntaryReleases: s.VoluntaryReleases, InvoluntaryReleases: s.InvoluntaryReleases,
		EvictedLeases: s.EvictedLeases, ForcedReleases: s.ForcedReleases,
		BrokenLeases: s.BrokenLeases, IgnoredLeases: s.IgnoredLeases,
		DeferredProbes: s.DeferredProbes,
		CASSuccesses:   s.CASSuccesses, CASFailures: s.CASFailures,
		MaxDirQueue: s.MaxDirQueue,
		Preemptions: s.Preemptions, PreemptedCycles: s.PreemptedCycles,
		CtrlClamps: s.CtrlClamps, CtrlShrinks: s.CtrlShrinks, CtrlGrows: s.CtrlGrows,
		Renewals: s.Renewals, RTSJumps: s.RTSJumps,
	}
}

// HotLineRow is one line of the ranked hot-line table, with the line
// address rendered in hex.
type HotLineRow struct {
	Line           string `json:"line"`
	Score          uint64 `json:"score"`
	Msgs           uint64 `json:"msgs"`
	Invals         uint64 `json:"invalidations"`
	Deferred       uint64 `json:"deferred_probes"`
	DeferredCycles uint64 `json:"deferred_cycles"`
	Leases         uint64 `json:"leases"`
	Breaks         uint64 `json:"broken_leases"`
	Evictions      uint64 `json:"l1_evictions"`
	MaxQueue       uint64 `json:"max_dir_queue"`
}

// HotLineRows renders the recorder's top-k contended lines.
func HotLineRows(rec *telemetry.Recorder, k int) []HotLineRow {
	top := rec.Lines.Top(k)
	rows := make([]HotLineRow, 0, len(top))
	for i := range top {
		s := &top[i]
		rows = append(rows, HotLineRow{
			Line:  fmt.Sprintf("%#x", uint64(s.Line)),
			Score: s.Score(), Msgs: s.Msgs, Invals: s.Invals,
			Deferred: s.Deferred, DeferredCycles: s.DeferredCycles,
			Leases: s.Leases, Breaks: s.Breaks,
			Evictions: s.Evictions, MaxQueue: s.MaxQueue,
		})
	}
	return rows
}

// LedgerRow is one ranked ledger line joined with its hot-line profile
// counters: lease efficiency alongside the contention that motivated (or
// should motivate) the lease.
type LedgerRow struct {
	telemetry.LedgerLineSummary
	HotScore uint64 `json:"hotline_score"`
	Msgs     uint64 `json:"msgs"`
	Invals   uint64 `json:"invalidations"`
}

// LedgerReport is the lease-ledger section of a run report: run totals
// plus the two top-N rankings, each row joined with the hot-line profile.
type LedgerReport struct {
	telemetry.LedgerTotals
	TopWasted         []LedgerRow `json:"top_wasted,omitempty"`
	TopDeferInflicted []LedgerRow `json:"top_defer_inflicted,omitempty"`
}

// LedgerRows joins ranked ledger lines with the recorder's hot-line
// counters (zero counters when the profiler never saw the line).
func LedgerRows(lines []telemetry.LedgerLineSummary, rec *telemetry.Recorder) []LedgerRow {
	rows := make([]LedgerRow, 0, len(lines))
	for _, ls := range lines {
		row := LedgerRow{LedgerLineSummary: ls}
		if rec != nil {
			if s := rec.Lines.Find(ls.Addr); s != nil {
				row.HotScore, row.Msgs, row.Invals = s.Score(), s.Msgs, s.Invals
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// BuildLedgerReport converts a run's ledger summary to report form,
// joining against rec's hot-line profile. Nil in, nil out.
func BuildLedgerReport(sum *telemetry.LedgerSummary, rec *telemetry.Recorder) *LedgerReport {
	if sum == nil {
		return nil
	}
	return &LedgerReport{
		LedgerTotals:      sum.LedgerTotals,
		TopWasted:         LedgerRows(sum.TopWasted, rec),
		TopDeferInflicted: LedgerRows(sum.TopDeferInflicted, rec),
	}
}

// protocolTag normalizes a config's protocol for reports: the default MSI
// (under either spelling) is the empty tag, so an MSI report never names a
// protocol.
func protocolTag(p string) string {
	if p == coherence.ProtocolMSI {
		return ""
	}
	return p
}

// BuildReport assembles the JSON report for one telemetry-enabled run.
func BuildReport(ds string, threads int, lease bool, cfg machine.Config,
	warm, window uint64, r Result, rec *telemetry.Recorder, hotK int) Report {

	rep := Report{
		DS: ds, Threads: threads, Lease: lease, Seed: cfg.Seed,
		WarmCycles: warm, WindowCycles: window,
		FaultProfile: cfg.Faults.Profile(),
		Protocol:     protocolTag(cfg.Protocol),
		Ops:          r.Ops, MopsPerSec: r.MopsPerSec, NJPerOp: r.NJPerOp,
		MissesPerOp: r.MissesPerOp, MsgsPerOp: r.MsgsPerOp,
		CASFailsPerOp: r.CASFailsPerOp, Fairness: r.Fairness,
		OpLatency: r.OpLatency, LeaseHold: r.LeaseHold,
		ProbeDefer: r.ProbeDefer, DirQueue: r.DirQueue,
		Txns:     r.Txns,
		Counters: CountersOf(r.Window),
	}
	if rec != nil && hotK > 0 {
		rep.HotLines = HotLineRows(rec, hotK)
	}
	rep.LeaseLedger = BuildLedgerReport(r.LeaseLedger, rec)
	if r.Err != nil {
		rep.Error = r.Err.Error()
	}
	return rep
}
