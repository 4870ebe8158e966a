package sim

import (
	"fmt"
	"testing"
)

// blockAfterOrder runs proc 1 to cycle 10 with an event due at 5, so that a
// Sync to 10 must park, and has it post an issue callback and block. At cycle
// 10 a callback (10, dom 0, dom 0) and one (10, dom 1, SysDomain) are queued
// too. withEvent picks BlockAfter; otherwise the proc does Sync, issue, Block
// itself. It returns the order the three ran in and the engine's counters.
func blockAfterOrder(t *testing.T, withEvent bool) ([]string, EngineStats) {
	t.Helper()
	e := NewEngine()
	var order []string
	e.At(5, func() {})
	e.Domain(0).At(10, func() { order = append(order, "dom0") })
	var p *Proc
	issue := func() {
		order = append(order, fmt.Sprintf("issue@%d", e.Now()))
		p.WakeAt(e.Now() + 2)
	}
	p = e.Spawn(1, 0, 1, func(p *Proc) {
		p.Work(10)
		var woke Time
		if withEvent {
			woke = p.BlockAfter(issue, "waiting for reply")
		} else {
			p.Sync()
			issue()
			woke = p.Block("waiting for reply")
		}
		order = append(order, fmt.Sprintf("woke@%d", woke))
	})
	e.At(0, func() { e.Sys().CrossAt(p.dom, 10, func() { order = append(order, "sys") }) })
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	return order, e.Stats()
}

// TestBlockAfterOrder: the issue callback takes the place of the Sync wake in
// the canonical order — after a same-cycle callback for a lower domain,
// before one onto the proc's domain from the system side — and the proc
// wakes where it would have.
func TestBlockAfterOrder(t *testing.T) {
	got, st := blockAfterOrder(t, true)
	want, ref := blockAfterOrder(t, false)
	if fmt.Sprint(got) != fmt.Sprint(want) || fmt.Sprint(want) != "[dom0 issue@10 sys woke@12]" {
		t.Errorf("BlockAfter order %v, Sync order %v, want [dom0 issue@10 sys woke@12]", got, want)
	}
	if st.SyncIssues != 1 || st.SyncWakes != 0 || ref.SyncWakes != 1 || ref.SyncIssues != 0 {
		t.Errorf("issues/wakes: BlockAfter %d/%d, Sync %d/%d; want 1/0 and 0/1",
			st.SyncIssues, st.SyncWakes, ref.SyncIssues, ref.SyncWakes)
	}
	if st.EventsTotal != ref.EventsTotal || st.OwnWakes+1 != ref.OwnWakes {
		t.Errorf("events %d and %d, own wakes %d and %d; want the same events and one wake fewer",
			st.EventsTotal, ref.EventsTotal, st.OwnWakes, ref.OwnWakes)
	}
}

// TestBlockAfterFastForward: with nothing due before the local clock, Sync is
// free, and BlockAfter runs issue on the proc at once without an event.
func TestBlockAfterFastForward(t *testing.T) {
	e := NewEngine()
	var at Time
	var pending int
	e.Spawn(0, 0, 1, func(p *Proc) {
		p.Work(10)
		p.BlockAfter(func() {
			at, pending = e.Now(), e.Pending()
			p.WakeAt(e.Now() + 1)
		}, "waiting for reply")
	})
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if at != 10 || pending != 0 || st.SyncFastForwards != 1 || st.SyncIssues != 0 {
		t.Errorf("issue ran at %d with %d pending; fast-forwards %d, issues %d; want 10, 0, 1, 0",
			at, pending, st.SyncFastForwards, st.SyncIssues)
	}
}

// TestBlockAfterAtHorizon: an issue at or past the Run's stop time stays
// queued for the next Run, as the wake would have.
func TestBlockAfterAtHorizon(t *testing.T) {
	e := NewEngine()
	ran := Time(0)
	e.Spawn(0, 0, 1, func(p *Proc) {
		p.Work(10)
		p.BlockAfter(func() {
			ran = e.Now()
			p.WakeAt(e.Now() + 1)
		}, "waiting for reply")
	})
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if ran != 0 || e.Pending() != 1 || e.Stats().SyncIssues != 1 {
		t.Fatalf("after Run(10): issue ran at %d, %d pending, %d issues; want not run, 1, 1",
			ran, e.Pending(), e.Stats().SyncIssues)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if ran != 10 {
		t.Errorf("issue ran at %d, want 10", ran)
	}
}

// TestBlockAfterKilled: a proc being killed schedules nothing; issue runs on
// it at once, as after a Sync, and Block returns.
func TestBlockAfterKilled(t *testing.T) {
	e := NewEngine()
	issued := false
	p := e.Spawn(0, 0, 1, func(p *Proc) {
		defer func() {
			p.Work(5)
			p.BlockAfter(func() { issued = true }, "unwinding")
		}()
		p.Block("forever")
	})
	e.At(1, func() {}) // something due, so a live proc would queue its issue
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	before := e.Pending()
	p.Kill()
	if !issued || e.Pending() != before || e.Stats().SyncIssues != 0 {
		t.Errorf("killed proc: issued %v, pending %d -> %d, issues %d; want true, unchanged, 0",
			issued, before, e.Pending(), e.Stats().SyncIssues)
	}
}
