package bench

import (
	"bytes"
	"strings"
	"testing"

	"leaserelease/internal/telemetry"
)

func compareRep(ds string, threads int, lease bool, ops uint64, mops float64,
	p50, p99 uint64, msgs float64) Report {
	return Report{
		DS: ds, Threads: threads, Lease: lease,
		Result: Result{Ops: ops, MopsPerSec: mops, MsgsPerOp: msgs,
			OpLatency: &telemetry.Summary{Count: ops, P50: p50, P99: p99}},
	}
}

// readReports accepts both shapes `leasesim -json` can produce: the
// concatenated object stream of a sweep, and a JSON array.
func TestReadReportsBothShapes(t *testing.T) {
	stream := []byte(`{"ds":"counter","threads":2,"ops":10}
{"ds":"counter","threads":4,"ops":20}`)
	reps, err := readReports(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0].Threads != 2 || reps[1].Ops != 20 {
		t.Fatalf("stream decoded to %+v", reps)
	}

	arr := []byte(`[{"ds":"stack","threads":8,"ops":5}]`)
	reps, err = readReports(arr)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps[0].DS != "stack" {
		t.Fatalf("array decoded to %+v", reps)
	}

	if _, err := readReports([]byte(`not json`)); err == nil {
		t.Error("garbage input decoded without error")
	}
}

// CompareReports matches rows on (ds, threads, lease), renders the delta
// table, and counts metric changes that regress beyond the threshold.
func TestCompareReportsRegressions(t *testing.T) {
	old := []Report{
		compareRep("counter", 4, true, 1000, 10.0, 100, 500, 8.0),
		compareRep("counter", 8, true, 900, 9.0, 120, 600, 9.0),
		compareRep("stack", 4, false, 500, 5.0, 200, 900, 12.0),
	}
	cur := []Report{
		// ops -20% and p99 +40%: two regressions beyond 5%.
		compareRep("counter", 4, true, 800, 10.1, 101, 700, 8.1),
		// All within threshold.
		compareRep("counter", 8, true, 910, 9.1, 118, 590, 9.05),
		// New config (no baseline).
		compareRep("queue", 4, true, 300, 3.0, 150, 400, 6.0),
	}

	var buf bytes.Buffer
	got, compared := CompareReports(&buf, old, cur, 5)
	out := buf.String()

	if got != 2 {
		t.Errorf("regressions = %d, want 2\n%s", got, out)
	}
	if compared != 2 {
		t.Errorf("compared = %d, want 2\n%s", compared, out)
	}
	for _, want := range []string{
		"counter/t4/lease", "counter/t8/lease",
		"queue/t4/lease", "(new)",
		"stack/t4/nolease", "(dropped)",
		"-20.0% !", "+40.0% !",
		"2 configs compared, 2 regressions beyond 5.0%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}

	// Threshold 0 disables highlighting entirely.
	buf.Reset()
	if got, _ := CompareReports(&buf, old, cur, 0); got != 0 {
		t.Errorf("threshold 0 still reported %d regressions", got)
	}
	if strings.Contains(buf.String(), "!") {
		t.Errorf("threshold 0 still marked regressions:\n%s", buf.String())
	}
}

// A metric that leaves 0 has no percentage change: a one-thread leased
// counter sends no messages, so one that starts sending them is a regression
// however few it sends, and one that gains ops from 0 is not.
func TestCompareFlagsChangeFromZero(t *testing.T) {
	old := []Report{compareRep("counter", 1, true, 0, 0, 10, 10, 0)}
	cur := []Report{compareRep("counter", 1, true, 0, 0, 10, 10, 0.5)}
	var buf bytes.Buffer
	if got, _ := CompareReports(&buf, old, cur, 5); got != 1 || !strings.Contains(buf.String(), "(was 0) !") {
		t.Errorf("msgs/op 0 -> 0.5: %d regressions, want 1 marked '(was 0) !':\n%s", got, &buf)
	}

	cur = []Report{compareRep("counter", 1, true, 100, 1.0, 10, 10, 0)}
	buf.Reset()
	if got, _ := CompareReports(&buf, old, cur, 5); got != 0 || !strings.Contains(buf.String(), "(was 0)") {
		t.Errorf("ops and Mops/s from 0: %d regressions, want 0 and '(was 0)' cells:\n%s", got, &buf)
	}
}

// Reports that differ only in protocol, seed or fault profile are different
// configurations: a file holding several of them compared with itself
// matches each report to itself and finds nothing.
func TestCompareKeysOnWholeConfiguration(t *testing.T) {
	msi := compareRep("counter", 4, true, 1000, 14.5, 200, 600, 5.0)
	tardis := compareRep("counter", 4, true, 700, 9.9, 250, 900, 7.5)
	tardis.Protocol = "tardis"
	seed2 := compareRep("counter", 4, true, 950, 14.0, 210, 640, 5.1)
	seed2.Seed = 2
	faulted := compareRep("counter", 4, true, 400, 6.0, 300, 4000, 5.5)
	faulted.FaultProfile = "preempt5"

	for name, file := range map[string][]Report{
		"two protocols": {msi, tardis},
		"two seeds":     {msi, seed2},
		"all four":      {msi, tardis, seed2, faulted},
	} {
		var buf bytes.Buffer
		regressions, compared := CompareReports(&buf, file, file, 5)
		if regressions != 0 || compared != len(file) {
			t.Errorf("%s: self-compare found %d regressions over %d configs, want 0 over %d:\n%s",
				name, regressions, compared, len(file), &buf)
		}
		if out := buf.String(); strings.Contains(out, "(new)") || strings.Contains(out, "(dropped)") {
			t.Errorf("%s: self-compare left a report unmatched:\n%s", name, out)
		}
	}

	// A protocol present on one side only is new or dropped, never a delta
	// against the other protocol's numbers.
	var buf bytes.Buffer
	regressions, compared := CompareReports(&buf, []Report{msi}, []Report{tardis}, 5)
	if regressions != 0 || compared != 0 {
		t.Errorf("msi vs tardis: %d regressions over %d configs, want none compared:\n%s", regressions, compared, &buf)
	}
	for _, want := range []string{"counter/t4/lease/s0/ptardis", "(new)", "counter/t4/lease/s0 ", "(dropped)"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("msi vs tardis output missing %q:\n%s", want, &buf)
		}
	}
}
