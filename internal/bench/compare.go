package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
)

// This file implements `leasebench -compare old.json new.json`: a
// per-configuration delta table between two `leasesim -json` report files,
// with regressions beyond a threshold highlighted and counted so CI can
// fail on them.

// ReadReportFile loads all reports from one `leasesim -json` output file.
// Both shapes are accepted: a JSON array of reports, or the stream of
// concatenated objects a -threads sweep emits.
func ReadReportFile(path string) ([]Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	reps, err := readReports(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(reps) == 0 {
		return nil, fmt.Errorf("%s: no reports", path)
	}
	return reps, nil
}

func readReports(data []byte) ([]Report, error) {
	var arr []Report
	if err := json.Unmarshal(data, &arr); err == nil {
		return arr, nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	var out []Report
	for {
		var rep Report
		if err := dec.Decode(&rep); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// deltaPct returns the relative change new-vs-old in percent; 0 when the
// old value is 0 (no meaningful baseline).
func deltaPct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (new - old) / old
}

// fmtDelta renders the change from old to new as a signed percentage,
// flagging regressions. higherIsBetter says which direction counts as a
// regression; beyond thresholdPct the cell is marked with '!' and counted.
// A change from 0 has no percentage: the cell reads "(was 0)", and any move
// in the bad direction counts.
func fmtDelta(old, new float64, higherIsBetter bool, thresholdPct float64, regressions *int) string {
	pct := deltaPct(old, new)
	s := fmt.Sprintf("%+.1f%%", pct)
	bad := pct < -thresholdPct
	if !higherIsBetter {
		bad = pct > thresholdPct
	}
	if old == 0 && new != 0 {
		s, bad = "(was 0)", (new > 0) != higherIsBetter
	}
	if bad && thresholdPct > 0 {
		*regressions++
		s += " !"
	}
	return s
}

// CompareReports prints a per-configuration delta table (ops, throughput,
// latency percentiles, messages/op) between two report sets, matching rows
// on Report.Key: the whole configuration, seed, fault profile and protocol
// included. Metrics whose relative change regresses by more
// than thresholdPct are marked with '!'; it returns the count of such
// regressions (0 when thresholdPct is 0, i.e. highlighting disabled) and
// the number of matched configurations, so callers can emit a one-line
// verdict separately from the table.
func CompareReports(w io.Writer, old, new []Report, thresholdPct float64) (regressionCount, compared int) {
	oldBy := make(map[string]*Report, len(old))
	for i := range old {
		oldBy[old[i].Key()] = &old[i]
	}

	regressions := 0
	t := NewTable("config", "ops", "Δops", "Mops/s", "ΔMops/s",
		"p50", "Δp50", "p99", "Δp99", "msgs/op", "Δmsgs/op")
	matched := 0
	for i := range new {
		n := &new[i]
		k := n.Key()
		o, ok := oldBy[k]
		if !ok {
			t.Row(k, n.Ops, "(new)", n.MopsPerSec, "-",
				latP50(n), "-", latP99(n), "-", n.MsgsPerOp, "-")
			continue
		}
		matched++
		delete(oldBy, k)
		t.Row(k,
			n.Ops, fmtDelta(float64(o.Ops), float64(n.Ops), true, thresholdPct, &regressions),
			n.MopsPerSec, fmtDelta(o.MopsPerSec, n.MopsPerSec, true, thresholdPct, &regressions),
			latP50(n), fmtDelta(float64(latP50(o)), float64(latP50(n)), false, thresholdPct, &regressions),
			latP99(n), fmtDelta(float64(latP99(o)), float64(latP99(n)), false, thresholdPct, &regressions),
			n.MsgsPerOp, fmtDelta(o.MsgsPerOp, n.MsgsPerOp, false, thresholdPct, &regressions),
		)
	}
	for _, k := range slices.Sorted(maps.Keys(oldBy)) {
		t.Row(k, "-", "(dropped)", "-", "-", "-", "-", "-", "-", "-", "-")
	}
	t.Print(w)
	fmt.Fprintf(w, "\n%d configs compared", matched)
	if thresholdPct > 0 {
		fmt.Fprintf(w, ", %d regressions beyond %.1f%% (marked '!')", regressions, thresholdPct)
	}
	fmt.Fprintln(w)
	return regressions, matched
}

func latP50(r *Report) uint64 {
	if r.OpLatency == nil {
		return 0
	}
	return r.OpLatency.P50
}

func latP99(r *Report) uint64 {
	if r.OpLatency == nil {
		return 0
	}
	return r.OpLatency.P99
}
