package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// This file implements the `leasebench history` store: an append-only
// JSONL file of per-run summary metrics, keyed by configuration and git
// revision, that the HTML report (htmlreport.go) renders cross-run trend
// lines from.

// HistoryFile is the JSONL store inside the history directory.
const HistoryFile = "history.jsonl"

// HistoryEntry is one recorded run summary: the configuration key, the
// source revision, and the headline metrics a trend line needs. Full
// reports (histograms, hot lines, ledger rankings) stay in the original
// -json files; the store keeps only what cross-run comparison reads.
type HistoryEntry struct {
	// Key is Report.Key — the unit trend lines are grouped by. Fault-
	// injected runs carry "/f<profile>" (faults.Config.Profile) and
	// non-MSI-protocol runs "/p<protocol>", so degraded or per-protocol runs
	// trend separately from clean MSI ones instead of polluting their
	// polylines.
	Key      string `json:"key"`
	GitSHA   string `json:"git_sha,omitempty"`
	Note     string `json:"note,omitempty"`
	TimeUnix int64  `json:"time_unix"`

	DS           string `json:"ds"`
	Threads      int    `json:"threads"`
	Lease        bool   `json:"lease"`
	Seed         uint64 `json:"seed"`
	FaultProfile string `json:"fault_profile,omitempty"`
	Protocol     string `json:"protocol,omitempty"`

	Ops         uint64  `json:"ops"`
	MopsPerSec  float64 `json:"mops_per_sec"`
	NJPerOp     float64 `json:"nj_per_op"`
	MsgsPerOp   float64 `json:"msgs_per_op"`
	MissesPerOp float64 `json:"l1_misses_per_op"`
	P50         uint64  `json:"op_p50,omitempty"`
	P99         uint64  `json:"op_p99,omitempty"`

	// Ledger headline metrics, present when the run had -ledger.
	LeaseEfficiency float64 `json:"lease_efficiency,omitempty"`
	Amortization    float64 `json:"lease_amortization,omitempty"`
	DeferInflicted  uint64  `json:"defer_inflicted_cycles,omitempty"`

	Error string `json:"error,omitempty"`
}

// Key names the report's whole configuration —
// "<ds>/t<threads>/<lease|nolease>/s<seed>[/f<fault profile>][/p<protocol>]"
// — the one spelling `leasebench -compare`, the history store and the HTML
// report match and label runs by.
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

// HistoryEntryOf summarizes one report into a history entry stamped with
// the given revision and wall-clock time.
func HistoryEntryOf(r *Report, sha, note string, now time.Time) HistoryEntry {
	e := HistoryEntry{
		Key: r.Key(), GitSHA: sha, Note: note, TimeUnix: now.Unix(),
		DS: r.DS, Threads: r.Threads, Lease: r.Lease, Seed: r.Seed,
		FaultProfile: r.FaultProfile, Protocol: r.Protocol,
		Ops: r.Ops, MopsPerSec: r.MopsPerSec, NJPerOp: r.NJPerOp,
		MsgsPerOp: r.MsgsPerOp, MissesPerOp: r.MissesPerOp,
		Error: r.Error,
	}
	if r.OpLatency != nil {
		e.P50, e.P99 = r.OpLatency.P50, r.OpLatency.P99
	}
	if l := r.LeaseLedger; l != nil {
		e.LeaseEfficiency = l.Efficiency
		e.Amortization = l.Amortization
		e.DeferInflicted = l.DeferInflictedCycles
	}
	return e
}

// GitSHA returns the short revision of the working tree, or "" when the
// tree is not a git checkout (or git is unavailable) — history entries
// are still useful without it.
func GitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// AppendHistory summarizes every report into the append-only JSONL store
// under dir (created if missing) and returns the entries written.
func AppendHistory(dir, sha, note string, reports []Report, now time.Time) ([]HistoryEntry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, HistoryFile),
		os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	entries := make([]HistoryEntry, 0, len(reports))
	for i := range reports {
		e := HistoryEntryOf(&reports[i], sha, note, now)
		if err := enc.Encode(e); err != nil {
			f.Close()
			return nil, err
		}
		entries = append(entries, e)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return entries, f.Close()
}

// ReadHistory loads every entry of the store under dir, in append order.
// A missing store reads as empty — the report command degrades to a
// no-trends report rather than failing.
func ReadHistory(dir string) ([]HistoryEntry, error) {
	f, err := os.Open(filepath.Join(dir, HistoryFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []HistoryEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var e HistoryEntry
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", HistoryFile, line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// GroupHistory buckets entries by key, preserving append order inside
// each bucket, and returns the keys sorted for deterministic rendering.
func GroupHistory(entries []HistoryEntry) (keys []string, byKey map[string][]HistoryEntry) {
	byKey = make(map[string][]HistoryEntry)
	for _, e := range entries {
		if _, ok := byKey[e.Key]; !ok {
			keys = append(keys, e.Key)
		}
		byKey[e.Key] = append(byKey[e.Key], e)
	}
	sort.Strings(keys)
	return keys, byKey
}
