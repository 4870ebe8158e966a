package bench

import (
	"testing"

	"leaserelease/internal/machine"
)

// benchCounterRun measures the end-to-end host cost of simulating a
// contended counter — the paper's most handoff-dense workload, so the
// number tracks the kernel's park/wake and event-dispatch speed rather
// than any single micro-path. The custom metric is simulated cycles per
// host second: the figure that decides how long a full sweep takes.
func benchCounterRun(b *testing.B, kind CounterKind, threads int) {
	cfg := machine.DefaultConfig(threads)
	cfg.Seed = 3
	build := CounterWorkload(kind)
	const warm, window = 20_000, 200_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ThroughputOpts(cfg, threads, warm, window, build, Options{})
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.ReportMetric(float64(b.N)*(warm+window)/b.Elapsed().Seconds(), "simcycles/s")
}

func BenchmarkHostContendedCounter8(b *testing.B) {
	benchCounterRun(b, CounterTTS, 8)
}

func BenchmarkHostContendedCounterLeased8(b *testing.B) {
	benchCounterRun(b, CounterLeasedTTS, 8)
}
