package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"leaserelease/internal/machine"
	"leaserelease/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// The Perfetto/Chrome trace-event export is byte-identical per seed; this
// pins the exact bytes (lease slices plus nested transaction slices, the
// directory track, and flow arrows) for a small contended-counter run.
// Regenerate deliberately with: go test ./internal/bench -run Golden -update
func TestTimelineGolden(t *testing.T) {
	cfg := machine.DefaultConfig(2)
	cfg.Seed = 11
	rec := telemetry.NewRecorder()
	rec.EnableTimeline(float64(cfg.ClockHz) / 1e6)
	r := ThroughputOpts(cfg, 2, 500, 2_500,
		CounterWorkload(CounterLeasedTTS), Options{Recorder: rec})
	if r.Err != nil {
		t.Fatalf("run failed: %v", r.Err)
	}

	var buf bytes.Buffer
	if err := rec.Timeline.Write(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "timeline_counter_t2_seed11.json")

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, buf.Len())
		return
	}

	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("timeline differs from %s (%d vs %d bytes); if the change "+
			"is intentional, regenerate with -update", golden, buf.Len(), len(want))
	}

	// Sanity: the golden trace is valid JSON and contains the span layers.
	var parsed struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(want, &parsed); err != nil {
		t.Fatalf("golden timeline is not valid JSON: %v", err)
	}
	counts := map[string]int{}
	for _, e := range parsed.TraceEvents {
		counts[e.Ph]++
	}
	for _, ph := range []string{"X", "b", "e", "s", "f"} {
		if counts[ph] == 0 {
			t.Errorf("golden timeline has no %q events (slices/async/flow missing)", ph)
		}
	}
}
