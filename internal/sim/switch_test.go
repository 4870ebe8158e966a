package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// The tests below pin the proc-switch contract of the coroutine kernel:
// any goroutine may call Run, a torn-down engine leaves no goroutine
// behind (a coroutine is one), and a panic raised on a proc's stack still
// reaches Run's caller.

// mixedScenario builds four procs that interleave through Sync and
// Block/WakeAt plus a self-rescheduling event chain, logging every step.
func mixedScenario(log *[]string) *Engine {
	e := NewEngine()
	procs := make([]*Proc, 4)
	for id := range procs {
		id := id
		procs[id] = e.Spawn(id, Time(id), uint64(id+1), func(p *Proc) {
			for i := 0; ; i++ {
				p.Work(1 + p.RNG().Uint64n(7))
				p.Sync()
				*log = append(*log, fmt.Sprintf("p%d sync @%d", id, p.dom.Now()))
				if i%3 == id%3 {
					t := p.Block("reply")
					*log = append(*log, fmt.Sprintf("p%d woke @%d", id, t))
				}
			}
		})
	}
	var tick func()
	tick = func() {
		for _, p := range procs {
			if blocked, reason, _, _ := p.Status(); blocked && reason == "reply" {
				p.WakeAt(e.Now() + 2)
				break
			}
		}
		e.After(5, tick)
	}
	e.After(5, tick)
	return e
}

// Run need not stay on one goroutine: a caller may step an engine from
// whichever goroutine holds it, one Run call to the next. The event order
// must not depend on that.
func TestRunFromDifferentGoroutines(t *testing.T) {
	const until, chunk = 2000, 37
	var want []string
	one := mixedScenario(&want)
	if err := one.Run(until); err != nil {
		t.Fatal(err)
	}
	one.KillAll()

	var got []string
	e := mixedScenario(&got)
	for at := Time(chunk); ; at += chunk {
		if at > until {
			at = until
		}
		done := make(chan error)
		go func() { done <- e.Run(at) }()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if at == until {
			break
		}
	}
	e.KillAll()
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("event order differs when Run moves between goroutines: %d steps vs %d", len(got), len(want))
	}
}

func TestKillAllLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	for id := 0; id < 8; id++ {
		e.Spawn(id, Time(id%2)*1000, uint64(id+1), func(p *Proc) {
			if p.ID < 2 {
				return // finished
			}
			p.Block("forever") // parked; the late starters never run at all
		})
	}
	if err := e.Run(500); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n <= before {
		t.Fatalf("%d goroutines with procs parked, %d before: nothing to leak, test is vacuous", n, before)
	}
	e.KillAll()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after KillAll, %d before Spawn", n, before)
	}
}

func TestKillAllAfterProcPanicLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	e.Spawn(0, 0, 1, func(p *Proc) { p.Block("forever") })
	e.Spawn(1, 5, 2, func(p *Proc) { panic("die") })
	e.Spawn(2, 9, 3, func(p *Proc) {})
	if pe := recoverPanicError(t, func() { e.Drain() }); pe == nil || pe.ProcID != 1 {
		t.Fatalf("PanicError = %v, want one from proc 1", pe)
	}
	e.KillAll()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after panic + KillAll, %d before Spawn", n, before)
	}
}

// A parked proc executes events on its own stack, so an event panic there
// unwinds through the proc's coroutine. It must still come out of Run as
// an engine-context PanicError, and the other procs must stay killable.
func TestEventPanicWhileProcDrives(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	cleaned := 0
	for id := 0; id < 2; id++ {
		e.Spawn(id, 0, uint64(id+1), func(p *Proc) {
			defer func() { cleaned++ }()
			p.Block("forever")
		})
	}
	e.At(10, func() { panic("evt") }) // pops inside proc 1's Block
	pe := recoverPanicError(t, func() { e.Drain() })
	if pe == nil {
		t.Fatal("event panic on a proc's stack did not reach Run's caller")
	}
	if pe.ProcID != -1 || pe.Cycle != 10 || pe.Value != "evt" {
		t.Fatalf("PanicError = %+v, want engine context at cycle 10", pe)
	}
	e.KillAll()
	if cleaned != 2 {
		t.Fatalf("%d procs unwound, want 2", cleaned)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after KillAll, %d before Spawn", n, before)
	}
}

// TestEventPanicUnwindsThroughDeferredSync is the shape of HashMap.Put's
// deferred Unlock: an event panics on the stack of a driving proc whose
// deferred function does Work and Sync, and events are due before the clock
// that Sync asks for. The panic still comes out of Run as the event's — proc
// -1, the event's cycle and sequence — and the other proc stays killable.
func TestEventPanicUnwindsThroughDeferredSync(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	unwound := false
	e.Spawn(1, 0, 2, func(p *Proc) {
		defer func() { unwound = true }()
		p.Block("forever")
	})
	e.Spawn(0, 5, 1, func(p *Proc) {
		defer func() {
			p.Work(30)
			p.Sync()
		}()
		p.Block("forever") // drives the events below on its own stack
	})
	ran := 0
	for _, at := range []Time{10, 15, 20} {
		e.At(at, func() { ran++ })
	}
	var seq uint64
	e.At(12, func() {
		seq = e.curSeq
		panic("evt")
	})
	pe := recoverPanicError(t, func() { e.Drain() })
	if pe == nil {
		t.Fatal("event panic did not reach Run's caller")
	}
	if pe.ProcID != -1 || pe.Cycle != 12 || pe.EventSeq != seq || pe.Value != "evt" {
		t.Fatalf("PanicError = proc %d, cycle %d, seq %d, %v; want proc -1, cycle 12, seq %d, evt",
			pe.ProcID, pe.Cycle, pe.EventSeq, pe.Value, seq)
	}
	if ran == 0 {
		t.Fatal("proc 0 did not drive the event at 10 before the panic")
	}
	e.KillAll()
	if !unwound {
		t.Fatal("proc 1 was not unwound")
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after KillAll, %d before Spawn", n, before)
	}
}

// TestEventPanicUnwindsThroughDeferredBlockAfter: an event panics on the
// stack of a driving proc whose deferred function issues a miss with
// BlockAfter, with an event due before the proc's clock. The issue runs
// inline and nothing is scheduled, as for a killed proc.
func TestEventPanicUnwindsThroughDeferredBlockAfter(t *testing.T) {
	e := NewEngine()
	issued := false
	e.Spawn(0, 5, 1, func(p *Proc) {
		defer func() {
			p.Work(30)
			p.BlockAfter(func() { issued = true }, "unwinding")
		}()
		p.Block("forever") // drives the events below on its own stack
	})
	e.At(10, func() {})
	var seq uint64
	e.At(12, func() {
		seq = e.curSeq
		panic("evt")
	})
	e.At(20, func() {})
	pe := recoverPanicError(t, func() { e.Drain() })
	if pe == nil {
		t.Fatal("event panic did not reach Run's caller")
	}
	if pe.ProcID != -1 || pe.Cycle != 12 || pe.EventSeq != seq {
		t.Fatalf("PanicError = proc %d, cycle %d, seq %d; want proc -1, cycle 12, seq %d",
			pe.ProcID, pe.Cycle, pe.EventSeq, seq)
	}
	if !issued {
		t.Error("BlockAfter did not run its issue inline")
	}
	if st := e.Stats(); st.SyncWakes != 0 || st.SyncIssues != 0 {
		t.Errorf("sync wakes %d, sync issues %d; want 0, 0", st.SyncWakes, st.SyncIssues)
	}
	e.KillAll()
}

// TestProcSchedulingCounters pins the host-side counters on a scenario
// small enough to count by hand. p0 starts (switch 1), parks at 5 and pops
// p1's start: the loop switches to p1 (2), which fast-forwards to 3 and
// returns; the loop pops p0's wake (3). p0 blocks, executes the event at
// 20 itself and then pops its own wake, and finally fast-forwards to 25.
func TestProcSchedulingCounters(t *testing.T) {
	e := NewEngine()
	p0 := e.Spawn(0, 0, 1, func(p *Proc) {
		p.Work(5)
		p.Sync()
		p.Block("reply")
		p.Work(5)
		p.Sync()
	})
	e.Spawn(1, 2, 2, func(p *Proc) {
		p.Work(1)
		p.Sync()
	})
	e.At(20, func() { p0.WakeAt(20) })
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.ProcSwitches != 3 || st.OwnWakes != 1 || st.SyncFastForwards != 2 || st.EventsTotal != 5 {
		t.Fatalf("switches %d, own wakes %d, fast-forwards %d, events %d; want 3, 1, 2, 5",
			st.ProcSwitches, st.OwnWakes, st.SyncFastForwards, st.EventsTotal)
	}
	// Of the three Syncs only p0's first scheduled a wake; no lookahead is
	// declared, so none could be skipped (runahead_test.go pins that side).
	if st.SyncWakes != 1 || st.SyncsSkipped != 0 {
		t.Fatalf("sync wakes %d, syncs skipped %d; want 1, 0", st.SyncWakes, st.SyncsSkipped)
	}
	// All five events were a few cycles ahead and on another domain than the
	// one executing when scheduled: near-tier buckets, no heap. The
	// queue was at its fullest before the run, with the two start wakes and
	// the event at 20.
	if st.BucketEvents != 5 || st.HeapEvents != 0 || st.BucketOverflows != 0 || st.MaxPending != 3 {
		t.Fatalf("bucket %d, heap %d, overflows %d, max pending %d; want 5, 0, 0, 3",
			st.BucketEvents, st.HeapEvents, st.BucketOverflows, st.MaxPending)
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %d, want 25", e.Now())
	}
}
