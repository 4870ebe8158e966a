package telemetry

import (
	"testing"

	"leaserelease/internal/mem"
)

// txnEv builds one CatTxn event for feeding the span assembler directly.
func txnEv(time uint64, core int, kind uint8, line mem.Line, id, aux uint64) Event {
	return Event{Time: time, Core: core, Cat: CatTxn, Kind: kind, Line: line, Val: id, Aux: aux}
}

// The fill path (no forward, no sharers): phases must partition the span
// exactly — ReqNet, Queue, DirService (the emitted L2 latency), Transfer
// the remainder.
func TestSpanFillPathPhases(t *testing.T) {
	sp := NewSpans()
	sp.Keep = true
	id := TxnID(1, 1)
	sp.OnEvent(txnEv(100, 1, TxnBegin, 7, id, TxnFlagExcl))
	sp.OnEvent(txnEv(110, -1, TxnArrive, 7, id, 3))
	sp.OnEvent(txnEv(130, -1, TxnService, 7, id, 12))
	sp.OnEvent(txnEv(160, 1, TxnComplete, 7, id, 0))

	if len(sp.Completed) != 1 {
		t.Fatalf("completed %d spans, want 1", len(sp.Completed))
	}
	s := sp.Completed[0]
	want := [NumPhases]uint64{
		PhaseReqNet: 10, PhaseQueue: 20, PhaseDirService: 12, PhaseTransfer: 18,
	}
	if s.Phases != want {
		t.Errorf("phases = %v, want %v", s.Phases, want)
	}
	if !s.Excl || s.Deferred {
		t.Errorf("flags = excl=%v deferred=%v, want excl only", s.Excl, s.Deferred)
	}
	if s.Owner != -1 || s.Total() != 60 {
		t.Errorf("owner=%d total=%d, want -1/60", s.Owner, s.Total())
	}
}

// The invalidation path: the fan-out wait beyond the L2 access is its own
// phase, and the transfer remainder still closes the partition.
func TestSpanInvalPathPhases(t *testing.T) {
	sp := NewSpans()
	sp.Keep = true
	id := TxnID(2, 9)
	sp.OnEvent(txnEv(100, 2, TxnBegin, 7, id, TxnFlagExcl))
	sp.OnEvent(txnEv(110, -1, TxnArrive, 7, id, 1))
	sp.OnEvent(txnEv(130, -1, TxnService, 7, id, 12))
	sp.OnEvent(txnEv(130, -1, TxnInval, 7, id, 5))
	sp.OnEvent(txnEv(160, 2, TxnComplete, 7, id, 0))

	s := sp.Completed[0]
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
	sp.Keep = true
	id := TxnID(0, 4)
	sp.OnEvent(txnEv(100, 0, TxnBegin, 9, id, 0))
	sp.OnEvent(txnEv(108, -1, TxnArrive, 9, id, 1))
	sp.OnEvent(txnEv(120, -1, TxnService, 9, id, 0))
	sp.OnEvent(txnEv(135, 3, TxnProbe, 9, id, 0))
	sp.OnEvent(txnEv(135, 3, TxnDefer, 9, id, 0))
	sp.OnEvent(txnEv(180, 3, TxnProbeDone, 9, id, 0))
	sp.OnEvent(txnEv(195, 0, TxnComplete, 9, id, 0))

	s := sp.Completed[0]
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
// still complete (Keep/OnComplete see them), and events for transactions
// the assembler never saw begin are ignored.
func TestSpanWindowFilterAndUnknownIDs(t *testing.T) {
	sp := NewSpans()
	sp.Keep = true
	sp.WindowStart = 500

	// Unknown transaction: no Begin was observed.
	sp.OnEvent(txnEv(510, -1, TxnArrive, 1, TxnID(0, 42), 0))
	sp.OnEvent(txnEv(530, 0, TxnComplete, 1, TxnID(0, 42), 0))

	// Pre-window transaction.
	id := TxnID(0, 7)
	sp.OnEvent(txnEv(400, 0, TxnBegin, 1, id, 0))
	sp.OnEvent(txnEv(410, -1, TxnArrive, 1, id, 0))
	sp.OnEvent(txnEv(420, -1, TxnService, 1, id, 4))
	sp.OnEvent(txnEv(440, 0, TxnComplete, 1, id, 0))

	if st := sp.Stats(); st.Spans != 0 || st.SpanCycles != 0 {
		t.Errorf("pre-window span folded into stats: %+v", st)
	}
	if len(sp.Completed) != 1 {
		t.Errorf("completed %d spans, want 1 (the pre-window one, kept)", len(sp.Completed))
	}
	if sp.Open() != 0 {
		t.Errorf("%d transactions still open, want 0", sp.Open())
	}
}

// A pathological service latency (longer than the remaining span) is
// clamped so the transfer remainder can never underflow.
func TestSpanServiceLatencyClamped(t *testing.T) {
	sp := NewSpans()
	sp.Keep = true
	id := TxnID(0, 2)
	sp.OnEvent(txnEv(100, 0, TxnBegin, 3, id, 0))
	sp.OnEvent(txnEv(105, -1, TxnArrive, 3, id, 0))
	sp.OnEvent(txnEv(110, -1, TxnService, 3, id, 10_000))
	sp.OnEvent(txnEv(140, 0, TxnComplete, 3, id, 0))

	s := sp.Completed[0]
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
		sp.OnEvent(txnEv(t0, 0, TxnBegin, 1, id, 0))
		sp.OnEvent(txnEv(t0+10, -1, TxnArrive, 1, id, 0))
		sp.OnEvent(txnEv(t0+20, -1, TxnService, 1, id, 8))
		sp.OnEvent(txnEv(t0+40, 0, TxnComplete, 1, id, 0))
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
// reports false and Emit2 on that category allocates nothing — the
// instrumented hot paths stay free when span tracing is off.
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
	allocs := testing.AllocsPerRun(1000, func() {
		now++
		b.Emit2(CatTxn, 0, TxnBegin, 1, 99, TxnFlagExcl)
		b.Emit2(CatTxn, 0, TxnComplete, 1, 99, 0)
	})
	if allocs != 0 {
		t.Errorf("disabled CatTxn emit allocates %.1f objects, want 0", allocs)
	}
}

// Each core's in-flight transaction lives in its own slot: two cores'
// transactions overlap in time and both assemble, and an event carrying an
// ID its core's slot no longer holds — the transaction completed, and
// perhaps the core began its next — is ignored, and the ledger reading the
// completed spans is charged for neither.
func TestTxnSlotsOverlapAndIgnoreStaleIDs(t *testing.T) {
	sp, ld := spanLedger(0)
	sp.Keep = true
	feed := sp.OnEvent
	a, b := TxnID(1, 1), TxnID(2, 1)
	feed(txnEv(100, 1, TxnBegin, 7, a, TxnFlagExcl))
	feed(txnEv(105, 2, TxnBegin, 9, b, 0))
	feed(txnEv(110, -1, TxnArrive, 7, a, 1))
	feed(txnEv(112, -1, TxnArrive, 9, b, 1))
	feed(txnEv(120, -1, TxnService, 7, a, 0))
	feed(txnEv(125, -1, TxnService, 9, b, 8))
	feed(txnEv(135, 3, TxnProbe, 7, a, 0))
	feed(txnEv(135, 3, TxnDefer, 7, a, 0))
	if sp.Open() != 2 {
		t.Fatalf("open = %d mid-overlap, want 2", sp.Open())
	}
	feed(txnEv(160, 2, TxnComplete, 9, b, 0))
	feed(txnEv(180, 3, TxnProbeDone, 7, a, 0))
	feed(txnEv(195, 1, TxnComplete, 7, a, 0))

	// Stale: a completed ID, before and after its core begins its next.
	feed(txnEv(200, 3, TxnProbe, 9, b, 0))
	feed(txnEv(201, 2, TxnComplete, 9, b, 0))
	next := TxnID(1, 2)
	feed(txnEv(210, 1, TxnBegin, 7, next, 0))
	feed(txnEv(215, 3, TxnProbe, 7, a, 0))
	feed(txnEv(216, 3, TxnProbeDone, 7, a, 0))
	feed(txnEv(220, 1, TxnComplete, 7, a, 0))

	if len(sp.Completed) != 2 || sp.Open() != 1 {
		t.Fatalf("completed %d, open %d; want 2 and 1 (the next transaction)", len(sp.Completed), sp.Open())
	}
	bs, as := sp.Completed[0], sp.Completed[1]
	if bs.ID != b || bs.Total() != 55 || bs.Owner != -1 || bs.Phases[PhaseDirService] != 8 {
		t.Errorf("core 2's span = %+v", bs)
	}
	want := [NumPhases]uint64{PhaseReqNet: 10, PhaseQueue: 10, PhaseDirService: 15, PhaseDefer: 45, PhaseTransfer: 15}
	if as.ID != a || as.Owner != 3 || !as.Deferred || as.Phases != want {
		t.Errorf("core 1's span = %+v, want phases %v", as, want)
	}
	if st := sp.Stats(); st.Spans != 2 || st.Deferred != 1 || st.SpanCycles != 150 {
		t.Errorf("stats = %+v, want 2 spans, 1 deferred, 150 cycles", st)
	}

	// The next transaction still assembles from its own events only.
	feed(txnEv(230, -1, TxnArrive, 7, next, 0))
	feed(txnEv(240, -1, TxnService, 7, next, 4))
	feed(txnEv(250, 1, TxnComplete, 7, next, 0))
	if n := len(sp.Completed); n != 3 || sp.Completed[2].Owner != -1 || sp.Completed[2].Total() != 40 {
		t.Errorf("next span = %+v", sp.Completed[n-1])
	}
	if s := account(ld, 7); s.DeferInflictedCycles != 45 || s.DeferredTxns != 1 {
		t.Errorf("ledger line 7 = %+v, want 45 deferral cycles over 1 txn", *s)
	}
	if s := account(ld, 9); s.DeferInflictedCycles != 0 || s.DeferredTxns != 0 {
		t.Errorf("ledger line 9 = %+v, want nothing charged", *s)
	}
}
