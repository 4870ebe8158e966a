package bench

import (
	"testing"

	"leaserelease/internal/machine"
	"leaserelease/internal/telemetry"
)

// The hot-line profiler's ranking (and its per-line deferred-probe cycle
// accounting) is pinned on a seeded contended-counter run: the TTS flag
// line outranks the counter line, and the counter line — the only leased
// one — carries all deferrals and deferred cycles. Exact counts are part
// of the determinism contract; an intentional timing change must update
// them deliberately.
func TestHotLineRankingPinnedOnSeededRun(t *testing.T) {
	cfg := machine.DefaultConfig(4)
	cfg.Seed = 1
	rec := telemetry.NewRecorder()
	r := ThroughputOpts(cfg, 4, 20_000, 100_000,
		CounterWorkload(CounterLeasedTTS), Options{Recorder: rec, HotLines: 5})
	if r.Err != nil {
		t.Fatalf("run failed: %v", r.Err)
	}

	top := r.HotLines
	if len(top) != 2 {
		t.Fatalf("ranked %d lines, want 2 (flag + counter)", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Score < top[i].Score {
			t.Fatalf("ranking not score-descending: %d before %d",
				top[i-1].Score, top[i].Score)
		}
	}

	flag, counter := top[0], top[1]
	if flag.Line != "0x1" || counter.Line != "0x2" {
		t.Fatalf("ranking order = [%s %s], want [0x1 0x2]", flag.Line, counter.Line)
	}
	if flag.Score != 8434 || counter.Score != 5066 {
		t.Errorf("scores = [%d %d], want [8434 5066]", flag.Score, counter.Score)
	}
	if flag.Deferred != 0 || flag.DeferredCycles != 0 {
		t.Errorf("unleased flag line has deferrals: %d probes, %d cycles",
			flag.Deferred, flag.DeferredCycles)
	}
	if counter.Deferred != 844 || counter.DeferredCycles != 90249 {
		t.Errorf("counter line deferrals = %d probes, %d cycles; want 844, 90249",
			counter.Deferred, counter.DeferredCycles)
	}
	if counter.DeferredCycles < counter.Deferred {
		t.Error("deferred cycles below one cycle per deferred probe")
	}
}
