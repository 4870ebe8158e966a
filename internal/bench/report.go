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
	LeaseLedger *telemetry.LedgerSummary `json:"lease_ledger,omitempty"`

	Counters machine.Stats `json:"counters"` // Result.Window
	HotLines []HotLineRow  `json:"hot_lines,omitempty"`

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
		Txns: r.Txns, LeaseLedger: r.LeaseLedger,
		Counters: r.Window,
	}
	if rec != nil && hotK > 0 {
		rep.HotLines = HotLineRows(rec, hotK)
	}
	if r.Err != nil {
		rep.Error = r.Err.Error()
	}
	return rep
}
