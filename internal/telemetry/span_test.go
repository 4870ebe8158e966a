package telemetry

import (
	"testing"

	"leaserelease/internal/mem"
)

// done builds a transaction's one CatTxn event: core's transaction id on
// line, its grant delivered at end, with stamps st.
func done(end uint64, core int, line mem.Line, id uint64, st TxnStamps) Event {
	return Event{Time: end, Core: core, Cat: CatTxn, Kind: TxnComplete, Line: line, Val: id, Stamps: &st}
}

// answered is the stamps of a transaction the directory answered itself:
// begun, arrived and served at those cycles, with lat cycles of L2 access
// and extra ones of invalidation (or renewal) beyond it.
func answered(begin, arrive, service, lat, extra uint64) TxnStamps {
	return TxnStamps{Begin: begin, Arrive: arrive, Service: service, ServiceLat: lat, Extra: extra, Owner: -1}
}

// forwarded is the stamps of a transaction whose probe reached owner at
// probe and was answered at probeDone, after a deferral if deferred.
func forwarded(begin, arrive, service uint64, owner int, probe, probeDone uint64, deferred bool) TxnStamps {
	return TxnStamps{Begin: begin, Arrive: arrive, Service: service,
		Owner: owner, Probe: probe, ProbeDone: probeDone, Deferred: deferred}
}

// keep returns where every span sp completes is copied.
func keep(sp *Spans) *[]Span {
	kept := new([]Span)
	sp.OnComplete = func(s *Span) { *kept = append(*kept, *s) }
	return kept
}

// The fill path (no forward, no sharers): phases must partition the span
// exactly — ReqNet, Queue, DirService (the stamped L2 latency), Transfer
// the remainder.
func TestSpanFillPathPhases(t *testing.T) {
	sp := NewSpans()
	kept := keep(sp)
	st := answered(100, 110, 130, 12, 0)
	st.Excl = true
	sp.OnEvent(done(160, 1, 7, TxnID(1, 1), st))

	if len(*kept) != 1 {
		t.Fatalf("completed %d spans, want 1", len(*kept))
	}
	s := (*kept)[0]
	want := [NumPhases]uint64{
		PhaseReqNet: 10, PhaseQueue: 20, PhaseDirService: 12, PhaseTransfer: 18,
	}
	if s.Phases != want {
		t.Errorf("phases = %v, want %v", s.Phases, want)
	}
	if !s.Excl || s.Deferred {
		t.Errorf("flags = excl=%v deferred=%v, want excl only", s.Excl, s.Deferred)
	}
	if s.ID != TxnID(1, 1) || s.Core != 1 || s.Line != 7 || s.Owner != -1 || s.Total() != 60 {
		t.Errorf("span = %+v, want core 1's first transaction on line 7, owner -1, 60 cycles", s)
	}
}

// The invalidation path: the fan-out wait beyond the L2 access is its own
// phase, and the transfer remainder still closes the partition.
func TestSpanInvalPathPhases(t *testing.T) {
	sp := NewSpans()
	kept := keep(sp)
	sp.OnEvent(done(160, 2, 7, TxnID(2, 9), answered(100, 110, 130, 12, 5)))

	s := (*kept)[0]
	want := [NumPhases]uint64{
		PhaseReqNet: 10, PhaseQueue: 20, PhaseDirService: 12,
		PhaseInval: 5, PhaseTransfer: 13,
	}
	if s.Phases != want {
		t.Errorf("phases = %v, want %v", s.Phases, want)
	}
}

// The forward path with a lease deferral: DirService runs to probe
// arrival, the deferral wait is its own phase, and the owner is recorded.
func TestSpanForwardDeferPhases(t *testing.T) {
	sp := NewSpans()
	kept := keep(sp)
	sp.OnEvent(done(195, 0, 9, TxnID(0, 4), forwarded(100, 108, 120, 3, 135, 180, true)))

	s := (*kept)[0]
	want := [NumPhases]uint64{
		PhaseReqNet: 8, PhaseQueue: 12, PhaseDirService: 15,
		PhaseDefer: 45, PhaseTransfer: 15,
	}
	if s.Phases != want {
		t.Errorf("phases = %v, want %v", s.Phases, want)
	}
	if !s.Deferred || s.Owner != 3 {
		t.Errorf("deferred=%v owner=%d, want true/3", s.Deferred, s.Owner)
	}
	st := sp.Stats()
	if st.Spans != 1 || st.Deferred != 1 || st.SpanCycles != 95 {
		t.Errorf("stats = %+v, want 1 span, 1 deferred, 95 cycles", st)
	}
}

// Spans beginning before WindowStart are excluded from the accounting but
// still complete (OnComplete sees them), and an event that is no stamped
// completion — a step kind fed by hand, or a completion that carries no
// stamps — folds nothing.
func TestSpanWindowFilterAndUnknownIDs(t *testing.T) {
	sp := NewSpans()
	kept := keep(sp)
	sp.WindowStart = 500

	id := TxnID(0, 42)
	sp.OnEvent(Event{Time: 510, Core: -1, Cat: CatTxn, Kind: TxnArrive, Line: 1, Val: id})
	sp.OnEvent(Event{Time: 530, Core: 0, Cat: CatTxn, Kind: TxnComplete, Line: 1, Val: id})
	ghost := done(530, 0, 1, id, answered(500, 510, 520, 4, 0))
	ghost.Kind = TxnService
	sp.OnEvent(ghost)
	if len(*kept) != 0 {
		t.Fatalf("unstamped or step events completed %d spans", len(*kept))
	}

	// Pre-window transaction.
	sp.OnEvent(done(440, 0, 1, TxnID(0, 7), answered(400, 410, 420, 4, 0)))

	if st := sp.Stats(); st.Spans != 0 || st.SpanCycles != 0 {
		t.Errorf("pre-window span folded into stats: %+v", st)
	}
	if len(*kept) != 1 || (*kept)[0].Total() != 40 {
		t.Errorf("completed %v, want the pre-window span", *kept)
	}
}

// A pathological service latency (longer than the remaining span) is
// clamped so the transfer remainder can never underflow.
func TestSpanServiceLatencyClamped(t *testing.T) {
	sp := NewSpans()
	kept := keep(sp)
	sp.OnEvent(done(140, 0, 3, TxnID(0, 2), answered(100, 105, 110, 10_000, 0)))

	s := (*kept)[0]
	if s.Phases[PhaseDirService] != 30 || s.Phases[PhaseTransfer] != 0 {
		t.Errorf("service=%d transfer=%d, want clamped 30/0",
			s.Phases[PhaseDirService], s.Phases[PhaseTransfer])
	}
	var sum uint64
	for _, c := range s.Phases {
		sum += c
	}
	if sum != s.Total() {
		t.Errorf("phases sum %d != total %d", sum, s.Total())
	}
}

// OpEnd attributes the spans completed since the last boundary to the
// operation; the op-level identity OpCycles == OpTxnCycles + OpOtherCycles
// == sum(OpPhase) + OpOtherCycles must hold, and unmeasured boundaries
// only reset the pending state.
func TestSpanOpAccounting(t *testing.T) {
	sp := NewSpans()
	emit := func(id, t0 uint64) {
		sp.OnEvent(done(t0+40, 0, 1, id, answered(t0, t0+10, t0+20, 8, 0)))
	}
	emit(TxnID(0, 1), 100)     // 40 txn cycles
	emit(TxnID(0, 2), 150)     // 40 txn cycles
	sp.OpEnd(0, 90, 200, true) // 110-cycle op, 80 inside txns

	st := sp.Stats()
	if st.Ops != 1 || st.OpCycles != 110 || st.OpTxnCycles != 80 || st.OpOtherCycles != 30 {
		t.Errorf("op accounting = %+v, want 1/110/80/30", st)
	}
	var phaseSum uint64
	for _, c := range st.OpPhase {
		phaseSum += c
	}
	if phaseSum != st.OpTxnCycles {
		t.Errorf("sum(OpPhase)=%d != OpTxnCycles=%d", phaseSum, st.OpTxnCycles)
	}

	// Unmeasured boundary: resets pending without touching the stats.
	emit(TxnID(0, 3), 300)
	sp.OpEnd(0, 290, 350, false)
	sp.OpEnd(0, 350, 360, true) // no pending spans left
	st = sp.Stats()
	if st.Ops != 2 || st.OpTxnCycles != 80 {
		t.Errorf("unmeasured boundary leaked into op accounting: %+v", st)
	}

	sum := st.Summary()
	if sum.OpPhases == nil {
		t.Fatal("summary missing op_phases with ops recorded")
	}
	if got := sum.OpPhases.Vec(); got != st.OpPhase {
		t.Errorf("summary op phases %v != stats %v", got, st.OpPhase)
	}
}

// The zero-overhead contract: with nobody subscribed to CatTxn, Wants
// reports false and emitting on that category allocates nothing — the
// instrumented hot paths stay free on a machine with no recorder.
func TestTxnDisabledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	var now uint64
	b := NewBus(func() uint64 { return now })
	b.Subscribe(CatLease, func(Event) {}) // an unrelated subscriber
	if b.Wants(CatTxn) {
		t.Fatal("bus wants CatTxn with no subscriber")
	}
	st := answered(0, 1, 2, 3, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		now++
		b.Emit2(CatTxn, 0, TxnBegin, 1, 99, TxnFlagExcl)
		b.EmitTxn(0, 1, 99, &st)
	})
	if allocs != 0 {
		t.Errorf("disabled CatTxn emit allocates %.1f objects, want 0", allocs)
	}
}

// Two cores' transactions overlap in time, and each folds from its own
// stamps whatever completed in between: the assembler keeps nothing per
// transaction. The ledger reading the spans is charged for the deferred one
// only.
func TestOverlappingTxnsFoldFromTheirStamps(t *testing.T) {
	sp, ld := spanLedger(0)
	kept := new([]Span)
	sp.OnComplete = func(s *Span) { ld.OnSpan(s); *kept = append(*kept, *s) }
	a, b := TxnID(1, 1), TxnID(2, 1)
	sa := forwarded(100, 110, 120, 3, 135, 180, true)
	sa.Excl = true
	sp.OnEvent(done(160, 2, 9, b, answered(105, 112, 125, 8, 0)))
	sp.OnEvent(done(195, 1, 7, a, sa))
	next := TxnID(1, 2)
	sp.OnEvent(done(250, 1, 7, next, answered(210, 230, 240, 4, 0)))

	if len(*kept) != 3 {
		t.Fatalf("completed %d spans, want 3", len(*kept))
	}
	bs, as, ns := (*kept)[0], (*kept)[1], (*kept)[2]
	if bs.ID != b || bs.Core != 2 || bs.Total() != 55 || bs.Owner != -1 || bs.Phases[PhaseDirService] != 8 {
		t.Errorf("core 2's span = %+v", bs)
	}
	want := [NumPhases]uint64{PhaseReqNet: 10, PhaseQueue: 10, PhaseDirService: 15, PhaseDefer: 45, PhaseTransfer: 15}
	if as.ID != a || !as.Excl || as.Owner != 3 || !as.Deferred || as.Phases != want {
		t.Errorf("core 1's span = %+v, want phases %v", as, want)
	}
	if ns.ID != next || ns.Owner != -1 || ns.Deferred || ns.Total() != 40 {
		t.Errorf("next span = %+v", ns)
	}
	if st := sp.Stats(); st.Spans != 3 || st.Deferred != 1 || st.SpanCycles != 190 {
		t.Errorf("stats = %+v, want 3 spans, 1 deferred, 190 cycles", st)
	}
	if s := account(ld, 7); s.DeferInflictedCycles != 45 || s.DeferredTxns != 1 {
		t.Errorf("ledger line 7 = %+v, want 45 deferral cycles over 1 txn", *s)
	}
	if s := account(ld, 9); s.DeferInflictedCycles != 0 || s.DeferredTxns != 0 {
		t.Errorf("ledger line 9 = %+v, want nothing charged", *s)
	}
}
