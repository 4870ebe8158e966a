package bench

import (
	"sync"

	"leaserelease/internal/sim"
)

// engineTotal sums the event kernel's host-side counters (sim.EngineStats)
// over every benchmark run this process has finished. Hosts that aggregate
// many cells (leasebench -perfjson) read it back with EngineTotal after a
// sweep. A sum does not depend on the order cells finish in, so it is the
// same at any -parallel. Per-cell Results do not carry engine stats: they
// describe how the host executed a run, not what the run simulated.
var engineTotal struct {
	sync.Mutex
	sim.EngineStats
}

func addEngineStats(st sim.EngineStats) {
	engineTotal.Lock()
	engineTotal.Add(st)
	engineTotal.Unlock()
}

// EngineTotal returns the engine counters summed over the benchmark runs
// finished so far.
func EngineTotal() sim.EngineStats {
	engineTotal.Lock()
	defer engineTotal.Unlock()
	return engineTotal.EngineStats
}
