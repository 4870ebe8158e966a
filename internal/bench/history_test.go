package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"leaserelease/internal/telemetry"
)

func historyRep(threads int, seed uint64, mops float64, p99 uint64) Report {
	return Report{
		DS: "counter", Threads: threads, Lease: true, Seed: seed,
		Ops: 1000, MopsPerSec: mops, MsgsPerOp: 4.5,
		OpLatency: &telemetry.Summary{Count: 1000, P50: 120, P99: p99},
		LeaseLedger: &LedgerReport{LedgerTotals: telemetry.LedgerTotals{
			Leases: 50, Efficiency: 0.8, Amortization: 3.2, DeferInflictedCycles: 900,
		}},
	}
}

// AppendHistory/ReadHistory round-trip: two appends accumulate in order,
// keys carry the full configuration, and ledger headline metrics survive.
func TestHistoryAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Unix(1_700_000_000, 0)

	first, err := AppendHistory(dir, "abc1234", "baseline", []Report{
		historyRep(4, 1, 10.0, 500),
		historyRep(8, 1, 9.0, 650),
	}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 || first[0].Key != "counter/t4/lease/s1" {
		t.Fatalf("first append = %+v", first)
	}
	if _, err := AppendHistory(dir, "def5678", "", []Report{
		historyRep(4, 1, 11.0, 480),
	}, t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}

	entries, err := ReadHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("read %d entries, want 3", len(entries))
	}
	e := entries[2]
	if e.Key != "counter/t4/lease/s1" || e.GitSHA != "def5678" ||
		e.MopsPerSec != 11.0 || e.P99 != 480 ||
		e.LeaseEfficiency != 0.8 || e.DeferInflicted != 900 {
		t.Errorf("last entry = %+v", e)
	}
	if entries[0].Note != "baseline" || entries[0].TimeUnix != t0.Unix() {
		t.Errorf("first entry lost note/time: %+v", entries[0])
	}

	keys, byKey := GroupHistory(entries)
	if len(keys) != 2 || keys[0] != "counter/t4/lease/s1" || keys[1] != "counter/t8/lease/s1" {
		t.Fatalf("grouped keys = %v", keys)
	}
	if g := byKey["counter/t4/lease/s1"]; len(g) != 2 || g[0].MopsPerSec != 10.0 || g[1].MopsPerSec != 11.0 {
		t.Errorf("t4 group out of append order: %+v", g)
	}
}

// A missing store reads as empty, so `leasebench report` degrades to a
// no-trends report rather than failing.
func TestHistoryMissingStore(t *testing.T) {
	entries, err := ReadHistory(t.TempDir())
	if err != nil || entries != nil {
		t.Fatalf("missing store = (%v, %v), want (nil, nil)", entries, err)
	}
}

// The HTML report is a single self-contained document: sweep table for
// the current run, ledger rankings, and a trend section once a key has
// two recorded runs — all inline, no external asset references.
func TestWriteHTMLReport(t *testing.T) {
	cur := historyRep(4, 1, 11.0, 480)
	cur.OpLatency.Buckets = []telemetry.HistBucket{{Lo: 64, Count: 900}, {Lo: 128, Count: 100}}
	cur.LeaseLedger.TopWasted = []LedgerRow{{
		LedgerLineSummary: telemetry.LedgerLineSummary{
			Line: "0x1c0", Leases: 50, GrantedCycles: 5000, UsedCycles: 4000,
			UnusedCycles: 1000, WastedCycles: 1000, Efficiency: 0.8, Amortization: 3.2,
		},
		HotScore: 77,
	}}
	history := []HistoryEntry{
		{Key: "counter/t4/lease/s1", GitSHA: "abc1234", MopsPerSec: 10.0, P99: 500, TimeUnix: 1},
		{Key: "counter/t4/lease/s1", GitSHA: "def5678", MopsPerSec: 11.0, P99: 480, TimeUnix: 2},
		{Key: "counter/t8/lease/s1", GitSHA: "abc1234", MopsPerSec: 9.0, P99: 650, TimeUnix: 1},
	}

	var buf bytes.Buffer
	if err := WriteHTMLReport(&buf, []Report{cur}, history, "def5678", time.Unix(3, 0)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!doctype html", "counter/t4/lease/s1", // sweep row
		"svg class=\"spark\"",                                 // histogram sparkline
		"Lease ledger", "0x1c0", "Top lines by wasted cycles", // ledger section
		"Cross-run trends", "svg class=\"trend\"", // trend section (2 runs on t4 key)
		"10.000 &rarr; 11.000", "&#43;10.0%",
		"revision <code>def5678</code>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	for _, banned := range []string{"<script src", "<link", "http://", "https://"} {
		if strings.Contains(out, banned) {
			t.Errorf("report references external assets: found %q", banned)
		}
	}

	// One history run per key: no trend lines, but the hint and the
	// latest-runs fallback (no current reports) render.
	buf.Reset()
	if err := WriteHTMLReport(&buf, nil, history[2:], "", time.Unix(3, 0)); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, "Latest recorded runs") || !strings.Contains(out, "Fewer than two recorded runs") {
		t.Errorf("fallback report missing latest-runs table or trend hint:\n%s", out)
	}
	if strings.Contains(out, "svg class=\"trend\"") {
		t.Error("trend SVG rendered with a single run per key")
	}
}
