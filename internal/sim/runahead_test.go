package sim

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// An event is copied on every heap sift; it names its target domain by id
// and the engine's table resolves it, so it carries no pointer for that.
func TestEventStays40Bytes(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 40 {
		t.Fatalf("event is %d bytes, want <= 40", n)
	}
}

// runPanic runs the engine to completion and returns the text of the panic
// that escaped Run, or "".
func runPanic(e *Engine) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	if err := e.Drain(); err != nil {
		return err.Error()
	}
	return ""
}

// TestLookaheadEnforced is the premise of run-ahead: with a lookahead
// declared, an event for another domain that lands closer than the lookahead
// panics. At exactly the lookahead it is accepted, and a domain's events for
// itself are not restricted.
func TestLookaheadEnforced(t *testing.T) {
	const la = 10
	for _, dt := range []Time{la - 1, la} {
		e := NewEngine()
		e.DeclareLookahead(la)
		a, b := e.Domain(1), e.Domain(2)
		delivered := false
		a.At(5, func() {
			a.After(1, func() {})
			a.CrossAt(b, a.Now()+dt, func() { delivered = true })
		})
		msg := runPanic(e)
		switch {
		case dt < la && !strings.Contains(msg, "lookahead violation"):
			t.Errorf("event %d cycles ahead: got %q, want a lookahead violation", dt, msg)
		case dt >= la && (msg != "" || !delivered):
			t.Errorf("event %d cycles ahead: %q, delivered %v", dt, msg, delivered)
		}
	}
}

// TestRunAheadRules walks one proc through every condition of RunAhead. A
// system-side tick every 2 cycles (up to cycle 60) keeps something due, so
// that Sync is never free.
func TestRunAheadRules(t *testing.T) {
	const la = 10
	e := NewEngine()
	e.DeclareLookahead(la)
	var tick func()
	tick = func() {
		if e.Now() < 60 {
			e.After(2, tick)
		}
	}
	e.At(2, tick)

	type step struct {
		what string
		got  bool
		want bool
	}
	var steps []step
	check := func(p *Proc, what string, expiring, shared, want bool) {
		steps = append(steps, step{what, p.RunAhead(expiring, shared), want})
	}
	syncTo := func(p *Proc, at Time) {
		p.Work(at - p.Clock())
		p.Sync()
	}
	var dom0 *Domain
	e.Spawn(0, 0, 1, func(p *Proc) {
		check(p, "T == now", false, false, false)
		p.Work(3)
		check(p, "a timer of the domain expires by T", true, false, false)
		check(p, "the caller says the state is shared", false, true, false)
		check(p, "T = now+3", false, false, true)
		p.Work(6)
		check(p, "T = now+9, still behind the same now", false, false, true)
		p.Work(1)
		check(p, "T = now+lookahead", false, false, false)
		syncTo(p, 15) // the tick at 12 has sent a callback for cycle 22
		p.Work(2)
		if dom0.foreign != 1 {
			t.Errorf("foreign = %d with one callback in flight, want 1", dom0.foreign)
		}
		check(p, "a foreign callback is queued for 22, after T = 17", false, false, true)
		p.Work(5)
		check(p, "a foreign callback is queued for T = 22", false, false, false)
		syncTo(p, 27)
		p.Work(2)
		if dom0.foreign != 0 {
			t.Errorf("foreign = %d after the callback ran, want 0", dom0.foreign)
		}
		check(p, "the callback has run", false, false, true)
		syncTo(p, 38)
		p.Work(2)
		check(p, "T = until", false, false, false) // Run(40)
		p.Sync()
		syncTo(p, 59)
		p.Work(2)
		check(p, "T = 61, past the last tick", false, false, true)
	})
	dom0 = e.Domain(0)
	e.At(12, func() { e.Sys().CrossAt(dom0, 22, func() {}) })

	if err := e.Run(40); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 40 {
		t.Fatalf("Now() = %d after Run(40)", e.Now())
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	for _, s := range steps {
		if s.got != s.want {
			t.Errorf("%s: RunAhead() = %v, want %v", s.what, s.got, s.want)
		}
	}
	if len(steps) != 11 {
		t.Fatalf("%d checks ran, want 11", len(steps))
	}
	// The wake the last run-ahead did without would have been the last
	// event executed, at 61; the last real one is the tick at 60.
	if e.Now() != 61 {
		t.Errorf("Now() = %d after the queue drained, want 61", e.Now())
	}
	// Syncs that had to move the clock: to 15, 27, 38, 40, 59 by wake; five
	// skipped; none free, the ticks are always due first.
	st := e.Stats()
	if st.SyncWakes != 5 || st.SyncsSkipped != 5 || st.SyncFastForwards != 0 {
		t.Errorf("sync wakes %d, skipped %d, fast-forwards %d; want 5, 5, 0",
			st.SyncWakes, st.SyncsSkipped, st.SyncFastForwards)
	}
	// Each refusal with T ahead of the clock under its own reason; T == now
	// is no refusal, and a free Sync is TestRunAheadNeedsLookahead's.
	refused := [...]uint64{st.RefusedLookahead, st.RefusedForeign, st.RefusedStop,
		st.RefusedExpiry, st.RefusedShared, st.RefusedFastForward}
	if refused != [...]uint64{1, 1, 1, 1, 1, 0} {
		t.Errorf("refused lookahead, foreign, stop, expiry, shared, fast-forward = %v, want 1, 1, 1, 1, 1, 0", refused)
	}
}

// TestRunAheadNeedsLookahead: no lookahead declared, no run-ahead; and when
// nothing at all is due before T, Sync is free and RunAhead leaves it to it.
func TestRunAheadNeedsLookahead(t *testing.T) {
	for _, la := range []Time{0, 10} {
		e := NewEngine()
		e.DeclareLookahead(la)
		e.At(5, func() {})
		var busy, idle bool
		e.Spawn(0, 0, 1, func(p *Proc) {
			p.Work(6)
			busy = p.RunAhead(false, false) // the event at 5 is due first
			p.Sync()
			p.Work(1)
			idle = p.RunAhead(false, false) // nothing is
		})
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		if busy != (la > 0) || idle {
			t.Errorf("lookahead %d: RunAhead() = %v with an event due, %v with none", la, busy, idle)
		}
		// Without a lookahead both checks are lookahead refusals; with one,
		// the second is the free Sync's.
		st := e.Stats()
		want := [2]uint64{2, 0}
		if la > 0 {
			want = [2]uint64{0, 1}
		}
		if got := [2]uint64{st.RefusedLookahead, st.RefusedFastForward}; got != want {
			t.Errorf("lookahead %d: refused lookahead, fast-forward = %v, want %v", la, got, want)
		}
	}
}

// TestForeignCount follows a callback from one domain to another: it is
// counted onto its target while it is queued and uncounted when it pops.
func TestForeignCount(t *testing.T) {
	const la = 10
	e := NewEngine()
	e.DeclareLookahead(la)
	d := e.Domain(0)
	var queued, atPop, back int
	e.At(5, func() {
		e.Sys().CrossAt(d, 30, func() {
			atPop = d.foreign
			d.CrossAt(e.Sys(), d.Now()+la, func() { back = e.Sys().foreign })
		})
	})
	d.At(14, func() { queued = d.foreign }) // a domain's own events do not count
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if queued != 1 || atPop != 0 || back != 0 {
		t.Errorf("foreign: %d while queued, %d at its pop, %d (sys) at the reply's; want 1, 0, 0",
			queued, atPop, back)
	}
	if d.foreign != 0 || e.Sys().foreign != 0 {
		t.Errorf("drained engine still counts %d and %d foreign callbacks", d.foreign, e.Sys().foreign)
	}
}
