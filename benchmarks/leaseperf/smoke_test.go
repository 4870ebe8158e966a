package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// checkMetrics fails unless got holds exactly the declared metrics, each
// once, with the declared unit and a finite value.
func checkMetrics(t *testing.T, what string, declared []benchmarkMetric, got []metric) {
	t.Helper()
	seen := make(map[string]int)
	for _, m := range got {
		seen[m.Name]++
		if m.Value != m.Value || m.Value-m.Value != 0 {
			t.Errorf("%s: %s is %v", what, m.Name, m.Value)
		}
	}
	for _, d := range declared {
		switch n := seen[d.Name]; {
		case n != 1:
			t.Errorf("%s: %s emitted %d times, want once", what, d.Name, n)
		case findMetric(got, d.Name).Unit != d.Unit || d.Unit == "":
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, d.Name, findMetric(got, d.Name).Unit, d.Unit)
		}
		delete(seen, d.Name)
	}
	for name := range seen {
		t.Errorf("%s: %s is emitted but not in BENCHMARK.json", what, name)
	}
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the tables in
// metrics.go and workloads.go from drifting apart.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := loadBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(what string, declared []benchmarkMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", what, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			want := benchmarkMetric{Name: d.name, Unit: d.unit, Better: d.better}
			if bounded {
				want.Bound = d.bound
			}
			if declared[i] != want {
				t.Errorf("%s: BENCHMARK.json has %+v, the benchmark %+v", what, declared[i], want)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
}

// TestSmoke runs every probe and every workload, untraced and traced, at a
// hundredth of the real lengths and checks that each pass emits exactly the
// metrics BENCHMARK.json promises for it.
func TestSmoke(t *testing.T) {
	f := loadBenchmarkFile(t)
	const scale = 0.01
	probes := runProbes(time.Duration(float64(probeBatch) * scale))
	for _, p := range probes {
		if p.Value <= 0 {
			t.Errorf("probe %s measured %v", p.Name, p.Value)
		}
	}
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			o := options{seed: 1, scale: scale, trace: trace, outDir: t.TempDir(), log: io.Discard}
			rep, err := runWorkload(w, o)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if rep.Failed != 0 || rep.Attempted < rep.Reps*2*checksPerCell {
				t.Errorf("%s: %d of %d checks failed over %d repetitions: %v", w.name, rep.Failed, rep.Attempted, rep.Reps, rep.Failures)
			}
			line := rep.contract()
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s: result line %+v", w.name, line)
			}
			if trace {
				// The shares are all there and add up to the whole profile, or
				// (no go tool pprof on this host) all left out with a note.
				declared := f.PerLayer
				if findMetric(rep.PerLayer, "share.other") == nil {
					t.Logf("%s: %v", w.name, rep.Notes)
					declared = withoutShares(declared)
				} else if sum := sumShares(rep.PerLayer); math.Abs(sum-1) > 0.02 {
					t.Errorf("%s: share.* sum to %v, want 1", w.name, sum)
				}
				checkMetrics(t, w.name+" traced", declared, append(append([]metric(nil), probes...), rep.PerLayer...))
				if len(line.Metrics) != len(declared)-len(probes) {
					t.Errorf("%s: traced result line has %d metrics, want %d", w.name, len(line.Metrics), len(declared)-len(probes))
				}
			} else {
				checkMetrics(t, w.name, f.EndToEnd, rep.EndToEnd)
				if len(line.Metrics) != len(f.EndToEnd) {
					t.Errorf("%s: result line has %d metrics, want %d", w.name, len(line.Metrics), len(f.EndToEnd))
				}
				for _, m := range rep.EndToEnd {
					if m.Name == "host_peak_rss_mb" && runtime.GOOS != "linux" {
						continue // read from /proc, see host_other.go
					}
					if m.Value <= 0 {
						t.Errorf("%s: %s is %v; end-to-end metrics are never 0", w.name, m.Name, m.Value)
					}
				}
			}
		}
	}
}

func withoutShares(declared []benchmarkMetric) []benchmarkMetric {
	var out []benchmarkMetric
	for _, d := range declared {
		if !strings.HasPrefix(d.Name, "share.") {
			out = append(out, d)
		}
	}
	return out
}

func sumShares(ms []metric) float64 {
	var sum float64
	for _, m := range ms {
		if strings.HasPrefix(m.Name, "share.") {
			sum += m.Value
		}
	}
	return sum
}
