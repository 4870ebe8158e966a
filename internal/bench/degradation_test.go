package bench

import (
	"bytes"
	"strings"
	"testing"

	"leaserelease/internal/ds"
	"leaserelease/internal/machine"
)

// degSmokeCell measures one (variant, rate) cell at smoke scale for the
// given seed. The window must cover many preemption durations (up to
// 300K cycles each) for the retention comparison to be meaningful.
func degSmokeCell(seed uint64, n, rate int, build func(d *machine.Direct) OpFunc) Result {
	cfg := Params{}.cfgFor(n)
	degradationCfg(&cfg, rate, false)
	cfg.Seed = seed
	return ThroughputOpts(cfg, n, 50_000, 3_000_000, build, Options{})
}

// TestDegradationSmoke is the gating robustness assertion (also run as a
// CI step): at the family's highest preemption rate, the leased stack
// retains strictly more of its fault-free throughput than the lock-based
// stack, for every tested seed. A preempted lease holder blocks victims
// for at most MAX_LEASE_TIME; a preempted lock holder blocks them for
// the whole preemption — the retention gap is the mechanism's value
// under adversity, so losing it is a regression.
func TestDegradationSmoke(t *testing.T) {
	n := 8
	top := degradationRates[len(degradationRates)-1]
	for _, seed := range []uint64{1, 2} {
		lockBase := degSmokeCell(seed, n, 0, LockStackWorkload())
		lockHit := degSmokeCell(seed, n, top, LockStackWorkload())
		leaseBase := degSmokeCell(seed, n, 0, StackWorkload(ds.StackOptions{Lease: LeaseTime}))
		leaseHit := degSmokeCell(seed, n, top, StackWorkload(ds.StackOptions{Lease: LeaseTime}))
		for _, r := range []Result{lockBase, lockHit, leaseBase, leaseHit} {
			if r.Err != nil {
				t.Fatalf("seed %d: cell failed: %v", seed, r.Err)
			}
		}
		if lockHit.Window.Preemptions == 0 || leaseHit.Window.Preemptions == 0 {
			t.Fatalf("seed %d: top-rate cells saw no preemptions", seed)
		}
		lockRet := DegradationRetention(lockBase, lockHit)
		leaseRet := DegradationRetention(leaseBase, leaseHit)
		if leaseRet <= lockRet {
			t.Errorf("seed %d: lease retention %.3f <= lock retention %.3f at rate %d/1000",
				seed, leaseRet, lockRet, top)
		}
	}
}

// TestDegradationRateZeroMatchesClean: the rate-0 column of the sweep is
// an entirely fault-free run — identical counters to a config that never
// mentions faults — so existing goldens and baselines stay valid.
func TestDegradationRateZeroMatchesClean(t *testing.T) {
	build := StackWorkload(ds.StackOptions{Lease: LeaseTime})
	cfg := Params{}.cfgFor(4)
	degradationCfg(&cfg, 0, false)
	zero := ThroughputOpts(cfg, 4, 20_000, 80_000, build, Options{})
	clean := ThroughputOpts(Params{}.cfgFor(4), 4, 20_000, 80_000, build, Options{})
	if zero.Window != clean.Window || zero.Ops != clean.Ops {
		t.Fatalf("rate-0 degradation cell differs from clean run:\nzero:  %+v\nclean: %+v",
			zero.Window, clean.Window)
	}
}

// TestDegradationParallelDeterminism: the full experiment emits byte-
// identical tables for any worker-pool size, faults included — the
// -parallel contract extended to fault-injected sweeps.
func TestDegradationParallelDeterminism(t *testing.T) {
	params := Params{Threads: []int{4}, Warm: 10_000, Window: 40_000}
	e, ok := find("degradation")
	if !ok {
		t.Fatal("degradation experiment not registered")
	}
	var serial bytes.Buffer
	p := params
	p.Pool = nil
	e.Run(&serial, p)

	var parallel bytes.Buffer
	p.Pool = NewPool(4)
	e.Run(&parallel, p)
	p.Pool.Close()

	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Errorf("-parallel 4 degradation output differs from serial:\nserial:\n%s\nparallel:\n%s",
			serial.String(), parallel.String())
	}
	for _, want := range []string{"lock Mops/s", "lease+ctrl Mops/s", "throughput retention", "victim wait", "lease accounting"} {
		if !strings.Contains(serial.String(), want) {
			t.Errorf("degradation output missing %q:\n%s", want, serial.String())
		}
	}
}

// TestDegradationListedInExperiments: the experiment registry (and so
// `leasebench -list` and the unknown -exp error menu) includes the
// degradation family.
func TestDegradationListedInExperiments(t *testing.T) {
	for _, e := range All() {
		if e.ID == "degradation" {
			return
		}
	}
	t.Fatal("degradation missing from All()")
}
