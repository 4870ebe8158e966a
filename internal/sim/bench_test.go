package sim

import "testing"

// The kernel microbenchmarks below measure the event kernel alone:
// wall-clock ns/op here is nanoseconds of host time per simulated event
// or per proc handoff. Their numbers depend on the host, so compare only
// runs made on one host, alternating the two builds:
//
//	go test -c -o sim.test ./internal/sim   # once per commit
//	./sim.test -test.run '^$' -test.bench . -test.cpu 2
//
// EXPERIMENTS.md "Host performance" keeps the last such A/B (the kernel
// microbenchmark table, every run in BENCH_36.json).

// BenchmarkEventChainDelay1 measures the queue at its emptiest: a chain of
// events each scheduling its successor one cycle later, so every event pays
// one push into an empty bucket and one pop.
func BenchmarkEventChainDelay1(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Drain(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventChainZeroDelay measures the same-cycle path: every event
// schedules its successor with After(0), so each push joins the bucket that
// is draining and each pop empties it again.
func BenchmarkEventChainZeroDelay(b *testing.B) {
	e := NewEngine()
	e.StallLimit = 0 // the chain intentionally stays at one cycle
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(0, tick)
		}
	}
	e.After(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Drain(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventQueueDepth256 measures queue churn at a realistic pending
// depth: 256 in-flight events with deterministic pseudo-random delays
// (coherence traffic across many lines), each pop scheduling one push. All
// of it is near-tier traffic, four events to a bucket.
func BenchmarkEventQueueDepth256(b *testing.B) {
	e := NewEngine()
	rng := NewRNG(42)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(1+rng.Uint64n(64), tick)
		}
	}
	for i := 0; i < 256; i++ {
		e.After(1+rng.Uint64n(64), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Drain(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventQueueNearFar measures the queue under the traffic of the
// hash64 lease cell (EXPERIMENTS.md "Host performance"): 64 chains whose
// delays are a miss's hops — a few cycles, a network hop with and without
// jitter, an L2 fill, a DRAM fill — and, once per 80 events, a lease-expiry
// timer 20 000 cycles out that does nothing when it pops. The timers pile up
// in the heap (some 700 queued in steady state, ten times the chains); the
// chains should not pay for them.
func BenchmarkEventQueueNearFar(b *testing.B) {
	e := NewEngine()
	rng := NewRNG(42)
	delays := [...]Time{1, 2, 3, 4, 15, 15, 18, 18, 26, 126}
	nop := func() {}
	n := 0
	var tick func()
	tick = func() {
		n++
		if n%80 == 0 {
			e.After(20000, nop)
		}
		if n < b.N {
			e.After(delays[rng.Intn(len(delays))], tick)
		}
	}
	for i := 0; i < 64; i++ {
		e.After(delays[rng.Intn(len(delays))], tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Drain(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSyncSolo measures a lone proc advancing its clock with
// Work(1)+Sync in a loop — the local-compute hot path of every simulated
// thread. Nothing else is scheduled, so the engine has no reason to run
// any other event between syncs.
func BenchmarkProcSyncSolo(b *testing.B) {
	e := NewEngine()
	e.Spawn(0, 0, 1, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Work(1)
			p.Sync()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Drain(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSyncPingPong measures the full engine<->proc handoff: two
// procs interleave cycle by cycle, so every Sync must park and be woken
// by an engine event.
func BenchmarkProcSyncPingPong(b *testing.B) {
	e := NewEngine()
	for id := 0; id < 2; id++ {
		e.Spawn(id, 0, uint64(id+1), func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Work(1)
				p.Sync()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Drain(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcRing64 is the handoff shape that hurts: 64 procs started one
// cycle apart, each syncing every 64 cycles, so every cycle wakes exactly
// one proc and it is never the one that was just running. The two-proc
// ping-pong above hides what this shows — a handoff the Go scheduler can
// see (a channel send, say) costs more the more Ps there are to wake. Run
// with -cpu 1,2,4: the columns should agree.
func BenchmarkProcRing64(b *testing.B) {
	const procs = 64
	e := NewEngine()
	for id := 0; id < procs; id++ {
		e.Spawn(id, Time(id), uint64(id+1), func(p *Proc) {
			for i := 0; i < b.N; i += procs {
				p.Work(procs)
				p.Sync()
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Drain(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcBlockWake measures the Block/WakeAt handoff used by the
// coherence protocol to resume a thread when its miss completes.
func BenchmarkProcBlockWake(b *testing.B) {
	e := NewEngine()
	p := e.Spawn(0, 0, 1, func(p *Proc) {
		for {
			p.Block("bench wait")
		}
	})
	n := 0
	var tick func()
	tick = func() {
		p.WakeAt(e.Now())
		n++
		if n < b.N {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	b.ReportAllocs()
	b.ResetTimer()
	// The proc blocks forever after the last wake, so a drained queue is
	// reported as a (benign, expected) deadlock here.
	if err := e.Run(uint64(b.N) + 2); err != nil {
		if _, ok := err.(*DeadlockError); !ok {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	e.KillAll()
}
