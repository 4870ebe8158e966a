package bench

import (
	"fmt"

	"leaserelease/internal/coherence"
	"leaserelease/internal/telemetry"
)

// Report is one cell as `leasebench -cell` emits it: the cell's name and
// configuration, then its Result. Field order and types are stable: for a
// fixed seed and configuration the marshaled report is byte-for-byte
// reproducible.
type Report struct {
	Cell    string `json:"cell"` // CellName
	Threads int    `json:"threads"`
	Seed    uint64 `json:"seed"`
	// WarmCycles and WindowCycles are the scale the cell ran at: the
	// window is halved for a HalfWindow sweep.
	WarmCycles   uint64 `json:"warm_cycles"`
	WindowCycles uint64 `json:"window_cycles"`

	// FaultProfile is the compact fault-schedule identifier
	// (faults.Config.Profile) of a fault-injected run; empty — and
	// omitted, keeping clean reports byte-identical — otherwise.
	FaultProfile string `json:"fault_profile,omitempty"`

	// Protocol names the coherence protocol backend of a non-default run
	// ("tardis"); empty — and omitted, keeping MSI reports byte-identical
	// — for the default directory MSI.
	Protocol string `json:"protocol,omitempty"`

	Result

	TimelineFile string `json:"timeline_file,omitempty"`

	// Error is Result.Err's text when the run failed; the metrics are zero
	// then. Omitted on success.
	Error string `json:"error,omitempty"`
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

// hotLineRows renders ranked hot lines.
func hotLineRows(top []telemetry.LineStats) []HotLineRow {
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
