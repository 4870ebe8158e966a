package main

import (
	"math"
	"testing"
)

// cannedTop is `go tool pprof -top` output as go 1.24 prints it, cut down to
// one function per bucket rule, with two profiles merged.
const cannedTop = `File: leaseperf
Build ID: 85b7c1e07b56515aee23cbd384f057db42d4a18e
Type: cpu
Time: 2026-09-30 17:59:44 UTC
Duration: 4.01s, Total samples = 4.00s (99.75%)
Showing nodes accounting for 4.00s, 100% of 4.00s total
      flat  flat%   sum%        cum   cum%
     0.80s 20.00% 20.00%      0.80s 20.00%  runtime.futex
     0.40s 10.00% 30.00%      0.50s 12.50%  leaserelease/internal/sim.(*eventHeap).pop
     0.40s 10.00% 40.00%      0.40s 10.00%  runtime.mallocgc
     0.20s  5.00% 45.00%      0.20s  5.00%  runtime.nanotime (inline)
     0.20s  5.00% 50.00%      0.30s  7.50%  leaserelease/internal/cache.(*Cache).find (inline)
     0.20s  5.00% 55.00%      0.20s  5.00%  leaserelease/internal/core.(*LeaseTable).ShouldDefer
     0.20s  5.00% 60.00%      0.20s  5.00%  leaserelease/internal/coherence/tardis.(*Directory).Submit
     0.20s  5.00% 65.00%      0.20s  5.00%  leaserelease/internal/machine.(*dirEnv).CountMsg
     0.20s  5.00% 70.00%      0.20s  5.00%  leaserelease/internal/mem.(*Store).Load
     0.20s  5.00% 75.00%      0.20s  5.00%  leaserelease/internal/telemetry.(*Bus).Emit
     0.20s  5.00% 80.00%      0.20s  5.00%  leaserelease/internal/ds.(*Queue).Enqueue
     0.20s  5.00% 85.00%      0.20s  5.00%  main.counterOp.func1
     0.20s  5.00% 90.00%      0.20s  5.00%  leaserelease.(*Machine).Run
     0.20s  5.00% 95.00%      0.20s  5.00%  runtime.mapaccess2_fast64
     0.10s  2.50% 97.50%      0.10s  2.50%  leaserelease/internal/rng.(*Source).Uint64
     0.10s  2.50%   100%      0.10s  2.50%  sync/atomic.(*Uint64).Add
`

func TestParseTop(t *testing.T) {
	got := parseTop(cannedTop)
	want := map[string]float64{
		"sched": 0.25, "sim": 0.10, "gc": 0.10, "cache": 0.05, "core": 0.05, "coherence": 0.05,
		"machine": 0.05, "mem": 0.05, "telemetry": 0.05, "programs": 0.15, "other": 0.10,
	}
	var sum float64
	for _, name := range shareNames {
		if math.Abs(got[name]-want[name]) > 1e-9 {
			t.Errorf("share.%s = %v, want %v", name, got[name], want[name])
		}
		sum += got[name]
	}
	if len(got) != len(shareNames) || math.Abs(sum-1) > 1e-9 {
		t.Errorf("buckets %v sum to %v, want the %d of shareNames summing to 1", got, sum, len(shareNames))
	}
	for _, out := range []string{"", "pprof: unrecognized profile format\n", "      flat  flat%   sum%        cum   cum%\n"} {
		if got := parseTop(out); got != nil {
			t.Errorf("parseTop(%q) = %v, want nil", out, got)
		}
	}
}

func TestProfileBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.futex":                                      "sched",
		"runtime.chanrecv":                                   "sched",
		"runtime.gcBgMarkWorker.func2":                       "gc",
		"runtime.(*mspan).nextFreeIndex":                     "gc",
		"internal/runtime/atomic.(*Uint32).Load":             "other",
		"runtime.memmove":                                    "other",
		"leaserelease/internal/sim.(*Proc).Sync":             "sim",
		"leaserelease/internal/coherence.(*Directory).probe": "coherence",
		"leaserelease/internal/locks.(*TTS).Lock":            "programs",
		"leaserelease/internal/stm.(*TL2).Commit":            "programs",
		"leaserelease/internal/bench.run":                    "other",
		"main.runCell":                                       "programs",
		"fmt.Fprintf":                                        "other",
	} {
		if got := profileBucket(fn); got != want {
			t.Errorf("profileBucket(%q) = %q, want %q", fn, got, want)
		}
	}
}
