package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"leaserelease/internal/coherence"
	"leaserelease/internal/machine"
	"leaserelease/internal/telemetry"
)

// The `leasebench -cell` report is byte-identical per seed on every
// protocol backend; this pins the exact bytes of a small Tardis
// contended-counter report (counters including renewals/rts-jumps, span
// accounting, protocol tag) the same way the timeline golden pins the
// trace export. Regenerate deliberately with:
// go test ./internal/bench -run Golden -update
func TestTardisReportGolden(t *testing.T) {
	cfg := machine.DefaultConfig(2)
	cfg.Seed = 11
	cfg.Protocol = coherence.ProtocolTardis
	rec := telemetry.NewRecorder()
	const warm, window = 5_000, 25_000
	r := ThroughputOpts(cfg, 2, warm, window,
		CounterWorkload(CounterLeasedTTS), Options{Recorder: rec, HotLines: 5})
	if r.Err != nil {
		t.Fatalf("run failed: %v", r.Err)
	}

	rep := Report{Cell: "fig3-counter/lease/t2", Threads: 2, Seed: cfg.Seed,
		WarmCycles: warm, WindowCycles: window, Protocol: protocolTag(cfg.Protocol), Result: r}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report_counter_tardis_t2_seed11.json")

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
		t.Fatalf("report differs from %s (%d vs %d bytes); if the change "+
			"is intentional, regenerate with -update", golden, buf.Len(), len(want))
	}

	// Sanity: the golden report carries the protocol tag and the
	// timestamp-native counters no MSI run can produce.
	var parsed Report
	if err := json.Unmarshal(want, &parsed); err != nil {
		t.Fatalf("golden report is not valid JSON: %v", err)
	}
	if parsed.Protocol != coherence.ProtocolTardis {
		t.Errorf("golden protocol = %q, want %q", parsed.Protocol, coherence.ProtocolTardis)
	}
	if parsed.Window.Renewals == 0 && parsed.Window.RTSJumps == 0 {
		t.Error("golden report has neither renewals nor rts-jumps")
	}
	if parsed.Window.Msgs[coherence.MsgInval] != 0 {
		t.Error("golden Tardis report records invalidation messages")
	}
}
