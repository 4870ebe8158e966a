package leaserelease

import (
	"testing"

	"leaserelease/internal/bench"
	"leaserelease/internal/ds"
	"leaserelease/internal/machine"
)

// BenchmarkExperiment regenerates every table and figure of the paper at
// bench scale (8 simulated threads, short windows): one sub-benchmark per
// cell of each experiment's declaration, named
// <id>/[<row key>/]<variant>/t<threads>, with the simulated metrics attached
// to the Go benchmark output:
//
//	simMops/s  — simulated million operations per second (throughput axes)
//	simNJ/op   — simulated nanojoules per operation (energy axes)
//	simMiss/op — simulated L1 misses per operation
//	simMcycles — simulated Mcycles to completion (fixed-work variants)
//
// Run the full paper-scale sweeps with cmd/leasebench instead; wall-clock
// ns/op here measures the simulator itself, not the simulated hardware.
func BenchmarkExperiment(b *testing.B) {
	p := bench.Params{Threads: []int{8}, Warm: 50_000, Window: 250_000}
	for _, e := range bench.All() {
		s := e.Sweep(p)
		for _, row := range s.Rows {
			for _, v := range s.Variants {
				b.Run(bench.CellName(e.ID, row, v), func(b *testing.B) {
					var r bench.Result
					for i := 0; i < b.N; i++ {
						if r = s.RunCell(p, row, v, bench.Options{}); r.Err != nil {
							b.Fatal(r.Err)
						}
					}
					if r.Ops == 0 { // fixed work: Cycles is the time to completion
						b.ReportMetric(float64(r.Cycles)/1e6, "simMcycles")
						return
					}
					b.ReportMetric(r.MopsPerSec, "simMops/s")
					b.ReportMetric(r.NJPerOp, "simNJ/op")
					b.ReportMetric(r.MissesPerOp, "simMiss/op")
				})
			}
		}
	}
}

// BenchmarkTable1Config exercises machine construction at the Table 1
// configuration (sanity: the config itself is printed by `leasebench
// -exp table1`).
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.DefaultConfig(64))
		_ = m.Stats()
	}
}

// BenchmarkSimulatorThroughput measures the simulator engine itself:
// simulated cycles executed per wall-clock second for a contended
// workload (useful when sizing experiment windows).
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.ThroughputOpts(machine.DefaultConfig(8), 8, 0, 200_000,
			bench.StackWorkload(ds.StackOptions{Lease: bench.LeaseTime}), bench.Options{})
	}
	b.ReportMetric(float64(200_000*b.N)/b.Elapsed().Seconds(), "simCycles/s")
}
