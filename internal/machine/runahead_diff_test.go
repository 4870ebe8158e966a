package machine_test

import (
	"fmt"
	"slices"
	"testing"

	"leaserelease/internal/bench"
	"leaserelease/internal/coherence"
	"leaserelease/internal/ds"
	"leaserelease/internal/faults"
	"leaserelease/internal/machine"
	"leaserelease/internal/sim"
	"leaserelease/internal/telemetry"
)

// diffCell is everything a run leaves behind that the simulated programs or
// a report can see, plus the engine's own account of how it was executed.
type diffCell struct {
	stats  machine.Stats
	ops    []uint64 // per thread
	image  []uint64 // every allocated word
	engine sim.EngineStats
	// Traced cells: what a subscriber saw, in order, each core's share of
	// it with its operation ends, and what a recorder made of it.
	stream []seen
	cores  [][]seen
	obs    observed
}

// observed is what the consumers of operation ends account for: a
// recorder's spans, ledger and op latencies.
type observed struct {
	spans   telemetry.TxnStats
	ledger  telemetry.LedgerTotals
	latency telemetry.Hist
}

// seen is one event a subscriber saw, with a transaction's stamps copied
// out of the request they live in.
type seen struct {
	telemetry.Event
	stamps telemetry.TxnStamps
}

// opEnd marks, in a core's share of a traced cell's stream, the end of one of
// its thread's operations among its bus events.
const opEnd = telemetry.Category(255)

// mode says which accesses of a run go without their Sync: hits that run
// ahead of the event queue, misses issued by an event in the wake's place.
type mode struct {
	name         string
	hits, misses bool
}

func runDiffCell(t *testing.T, build func(*machine.Direct) bench.OpFunc,
	cfg machine.Config, traced bool, md mode) diffCell {
	t.Helper()
	threads := cfg.Cores
	m := machine.New(cfg)
	op := build(m.Direct())
	var stream []seen
	cores := make([][]seen, threads)
	rec := telemetry.NewRecorder()
	if traced {
		rec.EnableLedger()
		m.Telemetry().SubscribeAll(func(e telemetry.Event) {
			s := seen{Event: e}
			if e.Stamps != nil {
				s.stamps, s.Stamps = *e.Stamps, nil
			}
			stream = append(stream, s)
			if e.Core >= 0 {
				cores[e.Core] = append(cores[e.Core], s)
			}
		})
		rec.Attach(m.Telemetry())
		inner := op
		op = func(tid int, c *machine.Ctx) {
			start := c.Now()
			inner(tid, c)
			end := c.Now()
			cores[tid] = append(cores[tid], seen{Event: telemetry.Event{Time: end, Core: tid, Cat: opEnd}})
			rec.OpLatency.Observe(end - start)
			rec.Spans.OpEnd(tid, start, end, true)
			rec.Ledger.OpEnd(tid, true)
		}
	}
	ops := make([]uint64, threads)
	for i := 0; i < threads; i++ {
		i := i
		m.Spawn(0, func(c *machine.Ctx) {
			for {
				op(i, c)
				ops[i]++
			}
		})
	}
	if !md.hits {
		machine.SyncHits(m)
	}
	if !md.misses {
		machine.SyncMisses(m)
	}
	// Two Runs, so that a stop time falls in the middle of the work.
	for _, until := range []uint64{25_000, 60_000} {
		if err := m.Run(until); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.VerifyCoherence(); err != nil {
		t.Fatal(err)
	}
	cell := diffCell{m.Stats(), ops, machine.MemImage(m), m.EngineStats(), stream, cores, observed{}}
	if traced {
		cell.obs = observed{rec.Spans.Stats(), rec.Ledger.Totals(), rec.OpLatency}
	}
	m.Stop()
	return cell
}

// TestRunAheadDifferential runs each structure with run-ahead hits, with
// misses issued by an event in the Sync wake's place (deferred issue), with
// both, and with every access forced through Sync, under both protocols and
// with the fault injector off, on, and on with preemption, and requires the
// same simulation: statistics, memory image and per-thread progress. With a
// subscriber on the bus it requires the same events in the same order (hits
// emit nothing, a deferred miss emits at the wake's place), and each core's
// events and operation ends in the same order. An op end has no place in the
// global order: its consumers touch only state that the core's own events
// reach (DESIGN.md §2.4). So a recorder with spans and the ledger, fed at
// each op's end, must account the same spans, leases and op latencies. The
// engine's counters must account for the difference exactly. Only Sync wakes
// and the issue callbacks that replace some of them separate the event
// counts; and a Sync that has to move the clock is a wake, a fast-forward,
// skipped or an issue, so what one run skipped or issued the forced run paid
// for as one of the first two. (Not always as a wake: after a wake that the
// fast run did without, the forced run may find nothing else due and
// fast-forward the next Sync.)
//
// Every cell must have skipped some Syncs and issued some misses from
// events; an MSI hashmap cell, where more than a third of the accesses miss,
// must switch procs less often with both than forced. Under Tardis only hits
// on owned lines run ahead (a Shared copy is not private to its reader), and
// those each cell has too.
func TestRunAheadDifferential(t *testing.T) {
	const threads = 12
	workloads := []struct {
		name  string
		build func(*machine.Direct) bench.OpFunc
	}{
		{"hashmap", bench.SetWorkload(func(x machine.API) ds.Set { return ds.NewHashSet(x, 512/4, bench.LeaseTime) }, 512, 256)},
		{"lfskip", bench.SetWorkload(func(x machine.API) ds.Set { return ds.NewLFSkipList(x, bench.LeaseTime) }, 512, 256)},
		{"msqueue", bench.QueueWorkload(ds.QueueSingleLease)},
		{"tts-counter", bench.CounterWorkload(bench.CounterTTS)},
		{"leased-tts-counter", bench.CounterWorkload(bench.CounterLeasedTTS)},
	}
	profiles := []struct {
		name   string
		faults faults.Config
	}{
		{"clean", faults.Config{}},
		{"faults", faults.DefaultConfig()},
		{"preempt", faults.DefaultConfig().WithPreemption()},
	}
	modes := []mode{{"hits", true, false}, {"misses", false, true}, {"both", true, true}}
	for _, w := range workloads {
		for _, seed := range []uint64{1, 7} {
			traced := seed == 7
			t.Run(fmt.Sprintf("%s/seed%d", w.name, seed), func(t *testing.T) {
				for _, proto := range coherence.Protocols() {
					for _, prof := range profiles {
						t.Run(proto+"/"+prof.name, func(t *testing.T) {
							cfg := machine.DefaultConfig(threads)
							cfg.Seed, cfg.Protocol, cfg.Faults = seed, proto, prof.faults
							ref := runDiffCell(t, w.build, cfg, traced, mode{name: "all-Sync"})
							for _, md := range modes {
								fast := runDiffCell(t, w.build, cfg, traced, md)
								compareDiffCells(t, md.name, fast, ref, traced)
								f := fast.engine
								if md.misses && f.SyncIssues == 0 {
									t.Errorf("%s: no miss issued by an event", md.name)
								}
								if md.name == "both" && proto == coherence.ProtocolMSI &&
									w.name == "hashmap" && f.ProcSwitches >= ref.engine.ProcSwitches {
									t.Errorf("%s: %d proc switches, %d forced", md.name, f.ProcSwitches, ref.engine.ProcSwitches)
								}
								if md.hits && f.SyncsSkipped == 0 {
									t.Errorf("%s: no Sync skipped: the cell did not exercise run-ahead", md.name)
								}
							}
						})
					}
				}
			})
		}
	}
}

func compareDiffCells(t *testing.T, name string, fast, ref diffCell, traced bool) {
	if fast.stats != ref.stats {
		t.Errorf("%s: Stats differ:\n %s %+v\n all-Sync %+v", name, name, fast.stats, ref.stats)
	}
	if !slices.Equal(fast.ops, ref.ops) {
		t.Errorf("%s: per-thread operations differ:\n %s %v\n all-Sync %v", name, name, fast.ops, ref.ops)
	}
	if !slices.Equal(fast.image, ref.image) {
		t.Errorf("%s: final memory images differ", name)
	}
	if !slices.Equal(fast.stream, ref.stream) {
		t.Errorf("%s: subscriber streams differ (%d and %d entries)", name, len(fast.stream), len(ref.stream))
	} else if traced && len(fast.stream) == 0 {
		t.Errorf("%s: the traced cell delivered nothing", name)
	}
	for c := range fast.cores {
		if !slices.Equal(fast.cores[c], ref.cores[c]) {
			t.Errorf("%s: core %d's events and op ends differ (%d and %d entries)", name, c, len(fast.cores[c]), len(ref.cores[c]))
		}
	}
	if fast.obs != ref.obs {
		t.Errorf("%s: recorded accounting differs:\n %s %+v\n all-Sync %+v", name, name, fast.obs, ref.obs)
	} else if traced && fast.obs.spans.Ops == 0 {
		t.Errorf("%s: the traced cell's recorder counted no operation", name)
	}
	f, r := fast.engine, ref.engine
	if r.SyncsSkipped != 0 || r.SyncIssues != 0 {
		t.Fatalf("%d syncs skipped and %d issued in the all-Sync run", r.SyncsSkipped, r.SyncIssues)
	}
	t.Logf("%s: L1 hits %d, syncs skipped %d, misses issued %d, proc switches %d; all-Sync run: %d more events, %d more fast-forwards, %d proc switches",
		name, fast.stats.L1Hits, f.SyncsSkipped, f.SyncIssues, f.ProcSwitches,
		int64(r.EventsTotal-f.EventsTotal), int64(r.SyncFastForwards-f.SyncFastForwards), r.ProcSwitches)
	if got, want := r.EventsTotal-f.EventsTotal, r.SyncWakes-f.SyncWakes-f.SyncIssues; got != want {
		t.Errorf("%s: event counts differ by %d, Sync wakes less issues by %d", name, got, want)
	}
	if got, want := (r.SyncWakes-f.SyncWakes)+(r.SyncFastForwards-f.SyncFastForwards), f.SyncsSkipped+f.SyncIssues; got != want {
		t.Errorf("%s: %d syncs skipped or issued, but the all-Sync run paid for %d more wakes and fast-forwards", name, want, got)
	}
}
