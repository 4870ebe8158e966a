package main

import (
	"time"

	lr "leaserelease"
	"leaserelease/internal/cache"
	"leaserelease/internal/coherence"
	"leaserelease/internal/coherence/tardis"
	"leaserelease/internal/core"
	"leaserelease/internal/mem"
	"leaserelease/internal/sim"
	"leaserelease/internal/telemetry"
)

// The layer probes time each layer from outside, through its exported
// functions only. A probe's run(n) performs about n calls and returns how
// many it performed; the reported figure is the median over probeBatches
// batches of host time per call.

const (
	probeBatch   = 200 * time.Millisecond
	probeBatches = 5
)

type probe struct {
	name string
	// setup returns run and a teardown (nil if none is needed).
	setup func() (run func(n int) int, done func())
}

// runProbes measures every probe with batches of about the given length.
func runProbes(batch time.Duration) []metric {
	out := make([]metric, 0, len(probes))
	for _, p := range probes {
		d := findDef(probeDefs, p.name)
		out = append(out, sampled(d, measureProbe(p, batch, d.unit == "ms")))
	}
	return out
}

// measureProbe returns the per-call host time of each batch, in
// nanoseconds or, with perMS, milliseconds.
func measureProbe(p probe, batch time.Duration, perMS bool) []float64 {
	run, done := p.setup()
	if done != nil {
		defer done()
	}
	timed := func(n int) (time.Duration, int) {
		t0 := time.Now()
		did := run(n)
		return time.Since(t0), did
	}
	// Grow n until one batch is long enough to time, then size the real
	// batches from that rate.
	n := 64
	var d time.Duration
	var did int
	for {
		d, did = timed(n)
		if d >= batch/8 || n >= 1<<28 {
			break
		}
		n *= 4
	}
	n = max(int(float64(did)*float64(batch)/float64(d)), 1)
	samples := make([]float64, probeBatches)
	for i := range samples {
		d, did = timed(n)
		samples[i] = float64(d.Nanoseconds()) / float64(max(did, 1))
		if perMS {
			samples[i] /= 1e6
		}
	}
	return samples
}

// stubEnv is the core side of a coherence protocol with no cores behind
// it: probes downgrade at once, and a completed request is handed to next.
type stubEnv struct{ next func(*coherence.Request) }

func (e *stubEnv) DeliverProbe(int, *coherence.Request) bool      { return false }
func (e *stubEnv) Invalidate(int, mem.Line)                       {}
func (e *stubEnv) Complete(req *coherence.Request, _ cache.State) { e.next(req) }
func (e *stubEnv) CountMsg(coherence.MsgKind, int)                {}
func (e *stubEnv) CountL2()                                       {}
func (e *stubEnv) CountDRAM()                                     {}

type submitter interface{ Submit(*coherence.Request) }

// sweepTxns keeps one transaction in flight, round-robin over 4096 lines;
// each sweep moves to the next core and alternates read and write, so
// fills, invalidations and owner forwards all occur.
func sweepTxns(build func(*sim.Engine, coherence.Env) submitter) func() (func(int) int, func()) {
	return func() (func(int) int, func()) {
		eng := sim.NewEngine()
		env := &stubEnv{}
		p := build(eng, env)
		left, i := 0, 0
		env.next = func(req *coherence.Request) {
			if left--; left <= 0 {
				return
			}
			i++
			sweep := i >> 12
			*req = coherence.Request{Core: sweep & 63, Line: mem.Line(1 + i&4095), Excl: sweep&1 == 0}
			p.Submit(req)
		}
		return func(n int) int {
			left = n + 1
			env.next(new(coherence.Request))
			drain(eng)
			return n
		}, nil
	}
}

func drain(eng *sim.Engine) {
	if err := eng.Drain(); err != nil {
		panic(err)
	}
}

// machineLoop is a machine whose threads run body forever; run(n) advances
// it by n×cyclesPerCall cycles and reports how many calls completed.
func machineLoop(threads int, cyclesPerCall uint64, body func(m *lr.Machine) func(c *lr.Ctx)) func() (func(int) int, func()) {
	return func() (func(int) int, func()) {
		m := lr.New(lr.DefaultConfig(threads))
		call := body(m)
		calls := 0
		for t := 0; t < threads; t++ {
			m.Spawn(0, func(c *lr.Ctx) {
				for {
					call(c)
					calls++
				}
			})
		}
		return func(n int) int {
			before := calls
			if err := m.Run(m.Now() + uint64(n)*cyclesPerCall); err != nil {
				panic(err)
			}
			return calls - before
		}, m.Stop
	}
}

var probes = []probe{
	{name: "sim.event_ns", setup: func() (func(int) int, func()) {
		eng := sim.NewEngine()
		left := 0
		var tick func()
		tick = func() {
			if left--; left > 0 {
				eng.After(1, tick)
			}
		}
		return func(n int) int { left = n; eng.After(1, tick); drain(eng); return n }, nil
	}},
	{name: "sim.event_depth64_ns", setup: func() (func(int) int, func()) {
		eng := sim.NewEngine()
		rng := sim.NewRNG(42)
		left := 0
		var tick func()
		tick = func() {
			if left--; left > 0 {
				eng.After(1+rng.Uint64n(64), tick)
			}
		}
		return func(n int) int {
			left = n
			for c := 0; c < 64; c++ {
				eng.After(1+rng.Uint64n(64), tick)
			}
			drain(eng)
			return n + 63 // the 63 chains still pending when left reaches 0 pop too
		}, nil
	}},
	{name: "sim.sync_solo_ns", setup: func() (func(int) int, func()) {
		return func(n int) int {
			eng := sim.NewEngine()
			eng.Spawn(0, 0, 1, func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Work(1)
					p.Sync()
				}
			})
			drain(eng)
			return n
		}, nil
	}},
	{name: "sim.handoff_ns", setup: func() (func(int) int, func()) {
		return func(n int) int {
			eng := sim.NewEngine()
			for id := 0; id < 2; id++ {
				eng.Spawn(id, 0, uint64(id+1), func(p *sim.Proc) {
					for i := 0; i < n/2; i++ {
						p.Work(1)
						p.Sync()
					}
				})
			}
			drain(eng)
			return n
		}, nil
	}},
	{name: "sim.block_wake_ns", setup: func() (func(int) int, func()) {
		eng := sim.NewEngine()
		p := eng.Spawn(0, 0, 1, func(p *sim.Proc) {
			for {
				p.Block("probe wait")
			}
		})
		left := 0
		var tick func()
		tick = func() {
			p.WakeAt(eng.Now())
			if left--; left > 0 {
				eng.After(1, tick)
			}
		}
		return func(n int) int {
			left = n
			eng.After(1, tick)
			// The proc blocks again after the last wake, which an empty
			// queue reports as a deadlock; that is the expected end.
			if err := eng.Run(eng.Now() + uint64(n) + 2); err != nil {
				if _, ok := err.(*sim.DeadlockError); !ok {
					panic(err)
				}
			}
			return n
		}, eng.KillAll
	}},
	{name: "mem.load_ns", setup: func() (func(int) int, func()) {
		s := filledStore()
		var sink uint64
		return func(n int) int {
			for i := 0; i < n; i++ {
				sink += s.Load(probeAddr(i))
			}
			probeSink = sink
			return n
		}, nil
	}},
	{name: "mem.store_ns", setup: func() (func(int) int, func()) {
		s := filledStore()
		return func(n int) int {
			for i := 0; i < n; i++ {
				s.Store(probeAddr(i), uint64(i))
			}
			return n
		}, nil
	}},
	{name: "cache.lookup_hit_ns", setup: func() (func(int) int, func()) {
		c := cache.New(cache.DefaultConfig())
		for l := 0; l < 256; l++ {
			c.Install(mem.Line(l), cache.Shared)
		}
		return func(n int) int {
			hits := 0
			for i := 0; i < n; i++ {
				if c.Lookup(mem.Line(i&255), false) {
					hits++
				}
			}
			return hits
		}, nil
	}},
	{name: "cache.install_evict_ns", setup: func() (func(int) int, func()) {
		cfg := cache.DefaultConfig()
		c := cache.New(cfg)
		lines := 2 * cfg.SizeBytes / mem.LineSize // a sweep over twice the capacity always evicts
		return func(n int) int {
			for i := 0; i < n; i++ {
				l := mem.Line(i % lines)
				c.Victim(l)
				c.Install(l, cache.Shared)
			}
			return n
		}, nil
	}},
	{name: "core.lease_cycle_ns", setup: func() (func(int) int, func()) {
		t := core.NewTable(core.DefaultConfig())
		return func(n int) int {
			for i := 0; i < n; i++ {
				l := mem.Line(i & 1023)
				t.Insert(l, leaseTime, false)
				t.Start(l, uint64(i))
				t.ShouldDefer(l, uint64(i)+1)
				t.Remove(l)
			}
			return n
		}, nil
	}},
	{name: "core.probe_defer_ns", setup: func() (func(int) int, func()) {
		t := core.NewTable(core.DefaultConfig())
		t.Insert(7, leaseTime, false)
		e := t.Start(7, 0)
		req := new(coherence.Request)
		return func(n int) int {
			for i := 0; i < n; i++ {
				t.QueueProbe(7, req)
				e.TakeProbe()
			}
			return n
		}, nil
	}},
	{name: "coherence.msi_txn_ns", setup: sweepTxns(func(eng *sim.Engine, env coherence.Env) submitter {
		return coherence.NewDirectory(eng, env, coherence.DefaultTiming())
	})},
	{name: "coherence.msi_queued_txn_ns", setup: func() (func(int) int, func()) {
		eng := sim.NewEngine()
		env := &stubEnv{}
		dir := coherence.NewDirectory(eng, env, coherence.DefaultTiming())
		left := 0
		env.next = func(req *coherence.Request) {
			if left--; left > 0 {
				dir.Submit(req) // straight back into the line's queue
			}
		}
		reqs := make([]coherence.Request, 64)
		return func(n int) int {
			left = n
			for c := range reqs {
				reqs[c] = coherence.Request{Core: c, Line: 9, Excl: true}
				dir.Submit(&reqs[c])
			}
			drain(eng)
			return n + 63 // the 63 still queued when left reaches 0 complete too
		}, nil
	}},
	{name: "coherence.tardis_txn_ns", setup: sweepTxns(func(eng *sim.Engine, env coherence.Env) submitter {
		return tardis.New(eng, env, coherence.DefaultTiming(), tardis.Config{}, 64)
	})},
	{name: "telemetry.emit_off_ns", setup: emitProbe(false)},
	{name: "telemetry.emit_on_ns", setup: emitProbe(true)},
	{name: "telemetry.recorder_event_ns", setup: func() (func(int) int, func()) {
		var now uint64
		bus := telemetry.NewBus(func() uint64 { return now })
		rec := telemetry.NewRecorder()
		rec.EnableSpans()
		rec.EnableLedger()
		rec.Attach(bus)
		// One leased operation as the machine and the harness emit it: nine
		// events through the recorder, its span assembler and its ledger,
		// closed by the operation-boundary roll-ups.
		return func(n int) int {
			for i := 0; i < n; i += 9 {
				start := now
				id, l := uint64(i+1), mem.Line(i&4095)
				bus.Emit(telemetry.CatLease, 0, telemetry.LeaseCreated, l, 0)
				bus.Emit2(telemetry.CatTxn, 0, telemetry.TxnBegin, l, id, telemetry.TxnFlagExcl|telemetry.TxnFlagLease)
				bus.Emit(telemetry.CatCoherence, -1, telemetry.MsgRequest, l, 1)
				now += 15
				bus.Emit(telemetry.CatDirQueue, 0, 0, l, 1)
				bus.Emit2(telemetry.CatTxn, 0, telemetry.TxnArrive, l, id, 1)
				bus.Emit2(telemetry.CatTxn, 0, telemetry.TxnService, l, id, 11)
				now += 26
				bus.Emit2(telemetry.CatTxn, 0, telemetry.TxnComplete, l, id, 0)
				bus.Emit(telemetry.CatLease, 0, telemetry.LeaseStarted, l, leaseTime)
				now += 40
				bus.Emit(telemetry.CatLease, 0, telemetry.LeaseReleased, l, 40)
				rec.Spans.OpEnd(0, start, now, true)
				rec.Ledger.OpEnd(0, true)
			}
			return (n + 8) / 9 * 9
		}, nil
	}},
	{name: "machine.new64_ms", setup: func() (func(int) int, func()) {
		return func(n int) int {
			for i := 0; i < n; i++ {
				lr.New(lr.DefaultConfig(64))
			}
			return n
		}, nil
	}},
	{name: "machine.load_hit_ns", setup: machineLoop(1, 1, func(m *lr.Machine) func(*lr.Ctx) {
		base := m.Direct().Alloc(64 * mem.LineSize)
		i := 0
		return func(c *lr.Ctx) { c.Load(base + lr.Addr(i&63)*mem.LineSize); i++ }
	})},
	{name: "machine.load_miss_ns", setup: machineLoop(1, 45, func(m *lr.Machine) func(*lr.Ctx) {
		// A sweep over four times the L1 misses on every load.
		lines := 4 * cache.DefaultConfig().SizeBytes / mem.LineSize
		base := m.Direct().Alloc(uint64(lines) * mem.LineSize)
		i := 0
		return func(c *lr.Ctx) { c.Load(base + lr.Addr(i%lines)*mem.LineSize); i++ }
	})},
	{name: "machine.cas_handoff_ns", setup: machineLoop(2, 45, func(m *lr.Machine) func(*lr.Ctx) {
		a := m.Direct().Alloc(8)
		return func(c *lr.Ctx) { c.CAS(a, c.Load(a), 1) }
	})},
}

// probeSink keeps the compiler from discarding a probe's loads.
var probeSink uint64

const probeFootprint = 1 << 20 // bytes touched by the mem probes

func probeAddr(i int) mem.Addr { return mem.Addr(mem.LineSize + (i*72)&(probeFootprint-8)) }

func filledStore() *mem.Store {
	s := new(mem.Store)
	for a := mem.Addr(0); a <= probeFootprint+mem.LineSize; a += 8 {
		s.Store(a, uint64(a))
	}
	return s
}

// emitProbe times Bus.Emit with no subscriber (the guard every emit site
// pays) or with one trivial subscriber (delivery).
func emitProbe(on bool) func() (func(int) int, func()) {
	return func() (func(int) int, func()) {
		bus := telemetry.NewBus(func() uint64 { return 0 })
		var seen uint64
		if on {
			bus.Subscribe(telemetry.CatLease, func(telemetry.Event) { seen++ })
		}
		return func(n int) int {
			for i := 0; i < n; i++ {
				bus.Emit(telemetry.CatLease, 0, telemetry.LeaseCreated, mem.Line(i), 0)
			}
			probeSink = seen
			return n
		}, nil
	}
}
