package telemetry

import (
	"encoding/json"
	"testing"

	"leaserelease/internal/mem"
)

// leaseEv builds one CatLease event for feeding the ledger directly.
func leaseEv(time uint64, core int, kind uint8, line mem.Line, val uint64) Event {
	return Event{Time: time, Core: core, Cat: CatLease, Kind: kind, Line: line, Val: val}
}

// account returns line l's accounting, all zero when nothing charged l.
func account(ld *Ledger, l mem.Line) *leaseAccount {
	if a := ld.lines.find(l); a != nil {
		return a
	}
	return &leaseAccount{}
}

// The core conservation identity: for every line, the granted cycles of
// closed leases partition exactly into used and unused cycles, whatever
// mix of end kinds closed them.
func TestLedgerConservation(t *testing.T) {
	ld := NewLedger()

	// Line 7: an early release (40 of 100) and a full-duration expiry
	// that absorbed operations.
	ld.OnLease(leaseEv(100, 0, LeaseStarted, 7, 100))
	ld.OpEnd(0, true)
	ld.OnLease(leaseEv(140, 0, LeaseReleased, 7, 40))
	ld.OnLease(leaseEv(200, 1, LeaseStarted, 7, 100))
	ld.OpEnd(1, true)
	ld.OpEnd(1, true)
	ld.OnLease(leaseEv(300, 1, LeaseExpired, 7, 100))

	// Line 9: an expiry that absorbed nothing — its full hold is idle.
	ld.OnLease(leaseEv(150, 2, LeaseStarted, 9, 80))
	ld.OnLease(leaseEv(230, 2, LeaseExpired, 9, 80))

	for _, want := range []struct {
		line                                mem.Line
		leases, expired                     uint64
		granted, used, unused, idle, opsUnd uint64
	}{
		{7, 2, 1, 200, 140, 60, 0, 3},
		{9, 1, 1, 80, 80, 0, 80, 0},
	} {
		s := account(ld, want.line)
		if s.Leases != want.leases || s.Expired != want.expired ||
			s.GrantedCycles != want.granted || s.UsedCycles != want.used ||
			s.UnusedCycles != want.unused || s.ExpiredIdleCycles != want.idle ||
			s.OpsUnder != want.opsUnd {
			t.Errorf("line %d ledger = %+v, want %+v", want.line, *s, want)
		}
		if s.GrantedCycles != s.UsedCycles+s.UnusedCycles {
			t.Errorf("line %d: granted %d != used %d + unused %d",
				want.line, s.GrantedCycles, s.UsedCycles, s.UnusedCycles)
		}
	}
	if got := account(ld, 7).WastedCycles(); got != 60 {
		t.Errorf("line 7 wasted = %d, want 60 (unused only)", got)
	}
	if got := account(ld, 9).WastedCycles(); got != 80 {
		t.Errorf("line 9 wasted = %d, want 80 (idle expiry)", got)
	}
	tot := ld.Totals()
	if tot.Leases != 3 || tot.GrantedCycles != 280 || tot.UsedCycles != 220 ||
		tot.UnusedCycles != 60 || tot.OpsUnder != 3 || tot.OpenAtEnd != 0 {
		t.Errorf("totals = %+v", tot)
	}
	if tot.Efficiency != 220.0/280.0 || tot.Amortization != 1.0 {
		t.Errorf("efficiency=%v amortization=%v, want 220/280 and 1",
			tot.Efficiency, tot.Amortization)
	}
}

// Leases started before WindowStart, or whose grant never started a
// countdown (Val == NoVal), are excluded from the cycle totals; a lease
// still open at the end is reported but not folded.
func TestLedgerWindowAndNoVal(t *testing.T) {
	ld := NewLedger()
	ld.WindowStart = 500

	// Pre-window lease: start and end both ignored for accounting.
	ld.OnLease(leaseEv(400, 0, LeaseStarted, 3, 50))
	ld.OnLease(leaseEv(450, 0, LeaseReleased, 3, 50))

	// Countdown never started: FIFO-evicted while pending.
	ld.OnLease(leaseEv(600, 1, LeaseStarted, 3, NoVal))
	ld.OnLease(leaseEv(610, 1, LeaseEvicted, 3, NoVal))

	// End with no matching start (e.g. created pre-attach): ignored.
	ld.OnLease(leaseEv(620, 2, LeaseBroken, 3, 10))

	// In-window lease, still open at the end of the run.
	ld.OnLease(leaseEv(700, 0, LeaseStarted, 3, 90))

	tot := ld.Totals()
	if tot.Leases != 0 || tot.GrantedCycles != 0 || tot.UsedCycles != 0 {
		t.Errorf("excluded leases leaked into totals: %+v", tot)
	}
	if tot.OpenAtEnd != 1 {
		t.Errorf("open at end = %d, want 1", tot.OpenAtEnd)
	}
}

// A reported hold longer than the grant (emitter bug) is clamped so the
// conservation identity cannot underflow; NoVal hold counts as the full
// grant (the lease was cut without a measured hold).
func TestLedgerHoldClamped(t *testing.T) {
	ld := NewLedger()
	ld.OnLease(leaseEv(0, 0, LeaseStarted, 1, 60))
	ld.OnLease(leaseEv(70, 0, LeaseForced, 1, 70)) // hold > granted
	ld.OnLease(leaseEv(100, 0, LeaseStarted, 1, 40))
	ld.OnLease(leaseEv(120, 0, LeaseBroken, 1, NoVal)) // unmeasured hold

	s := account(ld, 1)
	if s.GrantedCycles != 100 || s.UsedCycles != 100 || s.UnusedCycles != 0 {
		t.Errorf("clamped ledger = %+v, want granted=used=100", *s)
	}
}

// spanLedger returns a span assembler that hands every completed span to a
// ledger, as Recorder.Attach wires them, both windowed at windowStart.
func spanLedger(windowStart uint64) (*Spans, *Ledger) {
	sp, ld := NewSpans(), NewLedger()
	sp.WindowStart, ld.WindowStart = windowStart, windowStart
	sp.OnComplete = ld.OnSpan
	return sp, ld
}

// The deferral fold: a forwarded transaction charges its probe-defer phase
// (probeDone-probe) to its line when its span completes — and only then,
// only if it began inside the window. DeferredTxns counts only transactions
// that actually deferred.
func TestLedgerDeferFold(t *testing.T) {
	sp, ld := spanLedger(100)

	// Forwarded + deferred, in window: charged.
	sp.OnEvent(done(200, 0, 5, TxnID(0, 1), forwarded(120, 125, 130, 3, 140, 190, true)))

	// Forwarded but served immediately (not deferred): probe round-trip
	// cycles still fold, but it is not a deferred transaction.
	sp.OnEvent(done(230, 1, 5, TxnID(1, 1), forwarded(210, 212, 215, 3, 220, 225, false)))

	// Began before the window: excluded even though it completes inside.
	sp.OnEvent(done(160, 2, 5, TxnID(2, 1), forwarded(90, 100, 110, 3, 140, 150, false)))

	// Fill path (never forwarded): nothing charged.
	sp.OnEvent(done(440, 1, 5, TxnID(1, 2), answered(400, 410, 420, 11, 0)))

	s := account(ld, 5)
	if s.DeferInflictedCycles != 55 { // 50 + 5
		t.Errorf("defer inflicted = %d, want 55", s.DeferInflictedCycles)
	}
	if s.DeferredTxns != 1 {
		t.Errorf("deferred txns = %d, want 1", s.DeferredTxns)
	}
	if st := sp.Stats(); st.Phase[PhaseDefer] != s.DeferInflictedCycles {
		t.Errorf("span probe-defer phase = %d, ledger charged %d", st.Phase[PhaseDefer], s.DeferInflictedCycles)
	}
}

// A forwarded transaction whose probe was served at once charges its line
// nothing, so the line gets no account: Lines holds only the lines a lease
// or a deferral charged.
func TestLedgerUnchargedSpanMakesNoLine(t *testing.T) {
	sp, ld := spanLedger(0)
	sp.OnEvent(done(30, 1, 5, TxnID(1, 1), forwarded(10, 12, 15, 3, 20, 20, false)))
	if st := sp.Stats(); st.Spans != 1 || st.Deferred != 0 {
		t.Fatalf("span stats = %+v, want one undeferred span", st)
	}
	if got := ld.Lines(); len(got) != 0 {
		t.Errorf("ledger lines = %+v, want none", got)
	}
}

// OpEnd absorbs an operation into every counted open lease on the core —
// and only measured operations, and only counted leases.
func TestLedgerOpEnd(t *testing.T) {
	ld := NewLedger()
	ld.WindowStart = 100
	ld.OnLease(leaseEv(50, 0, LeaseStarted, 1, 40))  // pre-window: not counted
	ld.OnLease(leaseEv(120, 0, LeaseStarted, 2, 40)) // counted
	ld.OnLease(leaseEv(130, 1, LeaseStarted, 3, 40)) // other core

	ld.OpEnd(0, true)
	ld.OpEnd(0, false) // warm-up op: ignored
	ld.OpEnd(5, true)  // core with no leases: no-op

	ld.OnLease(leaseEv(150, 0, LeaseReleased, 1, 40))
	ld.OnLease(leaseEv(150, 0, LeaseReleased, 2, 30))
	ld.OnLease(leaseEv(150, 1, LeaseReleased, 3, 20))

	if got := account(ld, 2).OpsUnder; got != 1 {
		t.Errorf("line 2 ops under lease = %d, want 1", got)
	}
	if got := account(ld, 1).OpsUnder; got != 0 {
		t.Errorf("pre-window lease absorbed %d ops, want 0", got)
	}
	if got := account(ld, 3).OpsUnder; got != 0 {
		t.Errorf("other core's lease absorbed %d ops, want 0", got)
	}
}

// A lease acquired and released inside one operation — the common leased
// data structure pattern, where the release precedes the operation
// boundary — still absorbs that operation; an unmeasured boundary
// discards the pending credit instead.
func TestLedgerOpEndCreditsLeasesClosedInOp(t *testing.T) {
	ld := NewLedger()

	// Op 1 (measured): acquire and release two leases inside the op.
	ld.OnLease(leaseEv(100, 0, LeaseStarted, 1, 50))
	ld.OnLease(leaseEv(120, 0, LeaseReleased, 1, 20))
	ld.OnLease(leaseEv(130, 0, LeaseStarted, 2, 50))
	ld.OnLease(leaseEv(150, 0, LeaseReleased, 2, 20))
	ld.OpEnd(0, true)

	if got := account(ld, 1).OpsUnder; got != 1 {
		t.Errorf("line 1 ops = %d, want 1 (lease closed within the op)", got)
	}
	if got := account(ld, 2).OpsUnder; got != 1 {
		t.Errorf("line 2 ops = %d, want 1", got)
	}

	// Op 2 (unmeasured): its in-op lease earns nothing, and the credit
	// does not leak into the next measured boundary.
	ld.OnLease(leaseEv(200, 0, LeaseStarted, 1, 50))
	ld.OnLease(leaseEv(220, 0, LeaseReleased, 1, 20))
	ld.OpEnd(0, false)
	ld.OpEnd(0, true)
	if got := account(ld, 1).OpsUnder; got != 1 {
		t.Errorf("line 1 ops = %d after unmeasured op, want still 1", got)
	}
	if got := ld.Totals(); got.Amortization != 2.0/3.0 {
		t.Errorf("amortization = %v, want 2/3 (2 ops over 3 leases)", got.Amortization)
	}
}

// Rankings are deterministic (ties break toward the lower line address),
// zero-valued lines are omitted, and the summary's hex rendering and
// derived fields match the per-line accounting.
func TestLedgerTopAndSummary(t *testing.T) {
	ld := NewLedger()
	for _, l := range []mem.Line{0x30, 0x10, 0x20} {
		ld.OnLease(leaseEv(0, 0, LeaseStarted, l, 100))
		ld.OnLease(leaseEv(40, 0, LeaseReleased, l, 40)) // 60 wasted each
	}
	ld.OnLease(leaseEv(200, 0, LeaseStarted, 0x40, 100))
	ld.OnLease(leaseEv(300, 0, LeaseExpired, 0x40, 100)) // idle expiry: 100 wasted

	top := ld.TopWasted(3)
	if len(top) != 3 || top[0].Line != 0x40 || top[1].Line != 0x10 || top[2].Line != 0x20 {
		t.Fatalf("top wasted order = %+v", top)
	}
	if ds := ld.TopDeferInflicted(5); len(ds) != 0 {
		t.Errorf("no deferrals but top defer-inflicted = %+v", ds)
	}

	sum := ld.Summary(2, &HotLines{}, nil)
	if len(sum.TopWasted) != 2 || sum.TopWasted[0].Line != "0x40" ||
		sum.TopWasted[0].WastedCycles != 100 {
		t.Errorf("summary top wasted = %+v", sum.TopWasted)
	}
	raw, err := json.Marshal(sum.TopWasted[0])
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded["line"] != "0x40" {
		t.Errorf("marshaled line = %v, want 0x40", decoded["line"])
	}
	if decoded["hotline_score"] != 0.0 {
		t.Errorf("marshaled hotline_score = %v without a hot-line profile, want 0", decoded["hotline_score"])
	}
}

// A ranked line joins with its hot-line counters; one the profiler never
// saw joins with zero counters, and the join makes no hot-line entry: the
// profile still counts only the lines it saw.
func TestLedgerSummaryLeavesHotLinesAlone(t *testing.T) {
	hot, tr := hotLines()
	seen := tr.get(0x10)
	seen.Msgs, seen.Invals = 7, 2
	ld := NewLedger()
	ld.OnLease(leaseEv(0, 0, LeaseStarted, 0x10, 100))
	ld.OnLease(leaseEv(90, 0, LeaseReleased, 0x10, 90)) // 10 wasted
	ld.OnLease(leaseEv(0, 1, LeaseStarted, 0x20, 100))
	ld.OnLease(leaseEv(50, 1, LeaseReleased, 0x20, 50)) // 50 wasted

	rows := ld.Summary(5, hot, tr).TopWasted
	if len(rows) != 2 || rows[1].Line != "0x10" || rows[1].HotScore != 9 || rows[1].Msgs != 7 || rows[1].Invals != 2 {
		t.Fatalf("seen line joined as %+v", rows)
	}
	if r := rows[0]; r.Line != "0x20" || r.HotScore != 0 || r.Msgs != 0 || r.Invals != 0 || r.Leases != 1 {
		t.Errorf("unseen line joined as %+v, want zero counters", r)
	}
	if n := hot.n + tr.n; n != 1 {
		t.Errorf("hot lines = %d after the join, want 1", n)
	}
}

// The zero-overhead contract for the ledger: with nobody subscribed to
// CatLease, the instrumented lease paths allocate nothing.
func TestLeaseDisabledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	var now uint64
	b := NewBus(func() uint64 { return now })
	b.Subscribe(CatTxn, func(Event) {}) // an unrelated subscriber
	if b.Wants(CatLease) {
		t.Fatal("bus wants CatLease with no subscriber")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		now++
		b.Emit(CatLease, 0, LeaseStarted, 1, 64)
		b.Emit(CatLease, 0, LeaseReleased, 1, 40)
	})
	if allocs != 0 {
		t.Errorf("disabled CatLease emit allocates %.1f objects, want 0", allocs)
	}
}
