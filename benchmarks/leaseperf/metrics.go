package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// metricDef names one reported metric. The tables must agree with
// BENCHMARK.json (the smoke test checks it). bound is the share of the
// first run's median by which a second run may be worse before it counts
// as a regression; the figures come from the measured spreads in
// ../README.md. exact marks simulated metrics: deterministic per seed, so
// -check-repeat demands that two runs of the same code on the same seed
// agree bit for bit; their bounds only cover runs on different seeds.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
	exact  bool
}

// endToEnd is every end-to-end metric, in print order. failed_share is
// printed with them but is not listed in BENCHMARK.json: it is 0 on a
// healthy run, and the result line's attempted and failed keys carry it.
var endToEnd = []metricDef{
	{"sim_cycles_per_host_s", "cycles/s", "higher", 0.25, false},
	{"host_allocs_per_kcycle", "allocs/kcycle", "lower", 0.12, false},
	{"host_peak_rss_mb", "MiB", "lower", 0.12, false},
	{"setup_s", "s", "lower", 0.25, false},
	{"sim_lease_speedup_x", "x", "higher", 0.08, true},
	{"sim_mops_per_s", "Mops/s", "higher", 0.15, true},
	{"sim_msgs_per_op", "msgs/op", "lower", 0.15, true},
	{"sim_nj_per_op", "nJ/op", "lower", 0.12, true},
}

// setupFloorS is the absolute slack -check-repeat gives setup_s besides its
// bound: a set-up of a few tenths of a second moves by that much on
// scheduler noise alone.
const setupFloorS = 0.05

// probeDefs are the workload-independent layer probes (host time per call).
var probeDefs = []metricDef{
	{name: "sim.event_ns", unit: "ns", better: "lower"},
	{name: "sim.event_depth64_ns", unit: "ns", better: "lower"},
	{name: "sim.sync_solo_ns", unit: "ns", better: "lower"},
	{name: "sim.handoff_ns", unit: "ns", better: "lower"},
	{name: "sim.block_wake_ns", unit: "ns", better: "lower"},
	{name: "mem.load_ns", unit: "ns", better: "lower"},
	{name: "mem.store_ns", unit: "ns", better: "lower"},
	{name: "cache.lookup_hit_ns", unit: "ns", better: "lower"},
	{name: "cache.install_evict_ns", unit: "ns", better: "lower"},
	{name: "core.lease_cycle_ns", unit: "ns", better: "lower"},
	{name: "core.probe_defer_ns", unit: "ns", better: "lower"},
	{name: "coherence.msi_txn_ns", unit: "ns", better: "lower"},
	{name: "coherence.msi_queued_txn_ns", unit: "ns", better: "lower"},
	{name: "coherence.tardis_txn_ns", unit: "ns", better: "lower"},
	{name: "telemetry.emit_off_ns", unit: "ns", better: "lower"},
	{name: "telemetry.emit_on_ns", unit: "ns", better: "lower"},
	{name: "telemetry.recorder_event_ns", unit: "ns", better: "lower"},
	{name: "machine.new64_ms", unit: "ms", better: "lower"},
	{name: "machine.load_hit_ns", unit: "ns", better: "lower"},
	{name: "machine.load_miss_ns", unit: "ns", better: "lower"},
	{name: "machine.cas_handoff_ns", unit: "ns", better: "lower"},
}

// counterDefs are the per-workload counters and ratios. Simulated ones
// cover both cells of the pair (counts summed, ratios of the sums) and are
// exact per seed; host ones are medians over the untraced repetitions.
var counterDefs = []metricDef{
	{name: "base.sim_cycles_per_host_s", unit: "cycles/s", better: "higher"},
	{name: "lease.sim_cycles_per_host_s", unit: "cycles/s", better: "higher"},
	{name: "machine.host_ns_per_access", unit: "ns", better: "lower"},
	{name: "machine.host_ns_per_msg", unit: "ns", better: "lower"},
	{name: "machine.host_ns_per_op", unit: "ns", better: "lower"},
	{name: "host.wall_cycles_per_s", unit: "cycles/s", better: "higher"},
	{name: "host.ref_speed", unit: "ratio", better: "higher"},
	{name: "host.cpu_per_wall", unit: "ratio", better: "lower"},
	{name: "host.gc_cycles", unit: "count", better: "lower"},
	{name: "host.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "host.alloc_bytes_per_kcycle", unit: "B/kcycle", better: "lower"},
	{name: "cache.accesses", unit: "count", better: "lower"},
	{name: "cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "coherence.msgs_per_kcycle", unit: "msgs/kcycle", better: "lower"},
	{name: "coherence.l2_per_kcycle", unit: "1/kcycle", better: "lower"},
	{name: "coherence.dram_accesses", unit: "count", better: "lower"},
	{name: "coherence.max_dir_queue", unit: "count", better: "lower"},
	{name: "core.leases", unit: "count", better: "higher"},
	{name: "core.involuntary_release_ratio", unit: "ratio", better: "lower"},
	{name: "core.deferred_probes", unit: "count", better: "lower"},
	{name: "machine.cas_fail_ratio", unit: "ratio", better: "lower"},
	{name: "ds.ops", unit: "count", better: "higher"},
	{name: "ds.fairness", unit: "ratio", better: "higher"},
	{name: "telemetry.events_delivered", unit: "count", better: "lower"},
	{name: "telemetry.span.dir_queue_share", unit: "ratio", better: "lower"},
	{name: "telemetry.span.probe_defer_share", unit: "ratio", better: "lower"},
	{name: "telemetry.ledger.used_ratio", unit: "ratio", better: "higher"},
	{name: "telemetry.op_p50_cycles", unit: "cycles", better: "lower"},
	{name: "telemetry.op_p99_cycles", unit: "cycles", better: "lower"},
}

// spanNames are the benchmark-owned spans of one cell, in execution order.
var spanNames = []string{
	"setup.machine_new", "setup.build", "setup.warm",
	"measure.run", "check.verify", "teardown.stop", "report.digest", "clock.tick",
}

// shareNames are the CPU-profile buckets of the measure phase.
var shareNames = []string{
	"sim", "sched", "gc", "cache", "core", "coherence", "machine", "mem",
	"telemetry", "programs", "other",
}

// tracedDefs are the metrics only the traced repetition produces.
var tracedDefs = func() []metricDef {
	var d []metricDef
	for _, n := range spanNames {
		d = append(d, metricDef{name: "span." + n + "_s", unit: "s", better: "lower"})
	}
	for _, n := range shareNames {
		d = append(d, metricDef{name: "share." + n, unit: "ratio", better: "lower"})
	}
	return append(d, metricDef{name: "trace_overhead_share", unit: "ratio", better: "lower"})
}()

// perLayer is every per-layer metric, in print order.
var perLayer = append(append(append([]metricDef(nil), probeDefs...), counterDefs...), tracedDefs...)

// metric is one reported value. Min, Max and N describe the samples the
// value is the median of; a single deterministic value has N = 1.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
	// Samples are the values in the order measured, one per repetition or
	// batch; the report files keep every run made.
	Samples []float64 `json:"samples,omitempty"`
}

func single(d metricDef, v float64) metric {
	return metric{Name: d.name, Value: v, Unit: d.unit, Min: v, Max: v, N: 1}
}

func sampled(d metricDef, xs []float64) metric {
	if len(xs) == 0 {
		return single(d, 0)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return metric{Name: d.name, Value: median(s), Unit: d.unit, Min: s[0], Max: s[len(s)-1], N: len(s), Samples: xs}
}

// median of a sorted, non-empty slice.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a cell that completed no operation must
// not put an Inf into the JSON).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// relDiff is |b-a| as a share of |a|.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(b-a) / math.Abs(a)
}

// digestOf hashes the printed form of its arguments (FNV-1a, 64 bit).
func digestOf(parts ...interface{}) string {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%+v|", p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
