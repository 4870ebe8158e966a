package telemetry

import (
	"cmp"
	"fmt"

	"leaserelease/internal/mem"
)

// Ledger is the lease-efficiency ledger: it consumes CatLease bus events
// and the span assembler's completed spans, and produces per-line (and
// run-total) accounting of whether each lease earned its keep — granted
// duration vs. cycles actually held, operations absorbed under the lease,
// and the deferral cycles the lease inflicted on other cores' coherence
// transactions (Proposition 1).
//
// Accounting identities (exact, per line, enforced by tests):
//
//	GrantedCycles == UsedCycles + UnusedCycles
//	sum(DeferInflictedCycles) == span assembler probe-defer phase total
//
// The second holds by construction when both share a WindowStart: the
// ledger charges each span's PhaseDefer (OnSpan).
//
// A lease is counted iff its countdown started at or after WindowStart
// (the harness sets WindowStart to the warm-up boundary, matching the
// span assembler's filter). Leases still open at the end of the run are
// reported in OpenAtEnd but not folded into the cycle totals, so the
// conservation identity holds exactly.
//
// The ledger is host-side only: like every bus subscriber it observes the
// deterministic simulated clock and never mutates simulated state, so for
// a given seed the simulated run is byte-identical with or without it.
type Ledger struct {
	// WindowStart excludes leases whose countdown started before it, and
	// coherence transactions that began before it (same convention as
	// Spans.WindowStart).
	WindowStart uint64

	lines lineTable[leaseAccount]
	open  [][]openLease // per-core open (started) leases, insertion order
	// closed holds, per core, the accounts of the lines of counted leases
	// closed since the last operation boundary: a lease acquired and
	// released inside one operation (the common leased data structure
	// pattern) still absorbed that operation, even though it is gone by the
	// time OpEnd fires.
	closed [][]*leaseAccount
}

// openLease is one started lease whose end event has not arrived yet.
type openLease struct {
	line    mem.Line
	dur     uint64 // granted duration (LeaseStarted's Val)
	ops     uint64 // operations completed on the core while it was open
	counted bool   // started inside the window with a known duration
}

// LineLedger is one line's lease-efficiency accounting, as Lines and the
// rankings export it.
type LineLedger struct {
	Line mem.Line
	leaseAccount
}

// leaseAccount is the lease-efficiency accounting of one cache line. A line
// has one only once a lease or a deferral charges it something.
type leaseAccount struct {
	Leases  uint64 // leases closed (started and ended) inside the window
	Expired uint64 // of those, closed by the MAX_LEASE_TIME timer

	GrantedCycles uint64 // sum of granted durations of closed leases
	UsedCycles    uint64 // cycles ownership was actually held
	UnusedCycles  uint64 // granted but returned early (GrantedCycles - UsedCycles)

	// ExpiredIdleCycles is the hold cycles of leases that ran to expiry
	// without absorbing a single operation: the grant deferred other cores
	// for its full duration and bought nothing — the strongest "lease too
	// long or mis-placed" signal.
	ExpiredIdleCycles uint64

	// OpsUnder is the operations the line's leases absorbed: completed
	// while a lease was open, or served by a lease acquired and released
	// inside the operation itself.
	OpsUnder uint64

	DeferredTxns         uint64 // completed transactions deferred behind this line's leases
	DeferInflictedCycles uint64 // cycles those transactions spent deferred
}

// Efficiency is the fraction of granted cycles actually held (0 if no
// lease closed yet).
func (l leaseAccount) Efficiency() float64 {
	if l.GrantedCycles == 0 {
		return 0
	}
	return float64(l.UsedCycles) / float64(l.GrantedCycles)
}

// Amortization is the mean operations absorbed per closed lease — the
// coherence transactions a lease amortizes, since without it each
// absorbed operation would re-acquire the line (0 if no lease closed).
func (l leaseAccount) Amortization() float64 {
	if l.Leases == 0 {
		return 0
	}
	return float64(l.OpsUnder) / float64(l.Leases)
}

// WastedCycles is the ranking key of the "top wasted" table: granted
// cycles returned unused plus hold cycles of expiries that absorbed no
// operation.
func (l leaseAccount) WastedCycles() uint64 {
	return l.UnusedCycles + l.ExpiredIdleCycles
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// OpenLeases returns the number of started leases whose end event has not
// arrived (at end of run: leases open when the simulation stopped).
func (ld *Ledger) OpenLeases() int {
	n := 0
	for _, per := range ld.open {
		n += len(per)
	}
	return n
}

func (ld *Ledger) openFor(core int) *[]openLease {
	for core >= len(ld.open) {
		ld.open = append(ld.open, nil)
	}
	return &ld.open[core]
}

// OnLease consumes one CatLease event. Subscribe it to CatLease
// (Recorder.Attach does this).
func (ld *Ledger) OnLease(e Event) {
	switch e.Kind {
	case LeaseStarted:
		per := ld.openFor(e.Core)
		// The lease table holds at most one lease per line per core, so an
		// open entry for the same line is stale; replace it defensively.
		for i := range *per {
			if (*per)[i].line == e.Line {
				*per = append((*per)[:i], (*per)[i+1:]...)
				break
			}
		}
		*per = append(*per, openLease{
			line:    e.Line,
			dur:     e.Val,
			counted: e.Val != NoVal && e.Time >= ld.WindowStart,
		})
	case LeaseReleased, LeaseExpired, LeaseEvicted, LeaseForced, LeaseBroken:
		per := ld.openFor(e.Core)
		for i := range *per {
			if (*per)[i].line != e.Line {
				continue
			}
			ol := (*per)[i]
			*per = append((*per)[:i], (*per)[i+1:]...)
			if ol.counted {
				for e.Core >= len(ld.closed) {
					ld.closed = append(ld.closed, nil)
				}
				ld.closed[e.Core] = append(ld.closed[e.Core], ld.close(e, ol))
			}
			return
		}
		// No open entry: the lease never started its countdown (e.g. a
		// pending lease FIFO-evicted, Val == NoVal) — nothing was granted.
	}
}

// close folds one ended lease into its line's account and returns it. The
// reported hold (e.Val) never exceeds the granted duration — the expiry
// timer fires at Started+Duration and removes the entry — but the ledger
// clamps anyway so the conservation identity survives any emitter bug.
func (ld *Ledger) close(e Event, ol openLease) *leaseAccount {
	hold := e.Val
	if hold == NoVal || hold > ol.dur {
		hold = ol.dur
	}
	s := ld.lines.get(e.Line)
	s.Leases++
	s.GrantedCycles += ol.dur
	s.UsedCycles += hold
	s.UnusedCycles += ol.dur - hold
	s.OpsUnder += ol.ops
	if e.Kind == LeaseExpired {
		s.Expired++
		if ol.ops == 0 {
			s.ExpiredIdleCycles += hold
		}
	}
	return s
}

// OnSpan charges one completed transaction's probe deferral to its line:
// the probe-defer phase of a forwarded span that began inside the window.
// A span that charges nothing makes no account. Recorder.Attach hands it
// every span the assembler completes.
func (ld *Ledger) OnSpan(s *Span) {
	if s.Owner < 0 || s.Begin < ld.WindowStart || s.Phases[PhaseDefer] == 0 && !s.Deferred {
		return
	}
	l := ld.lines.get(s.Line)
	l.DeferInflictedCycles += s.Phases[PhaseDefer]
	if s.Deferred {
		l.DeferredTxns++
	}
}

// OpEnd records one completed data structure operation on a core: every
// window-counted lease the core holds open — plus every counted lease it
// closed during the operation, since a lease acquired and released inside
// one operation absorbed it — absorbs the operation. The harness calls it
// at each operation boundary with measured reporting whether the
// operation started inside the measurement window.
func (ld *Ledger) OpEnd(core int, measured bool) {
	if core < len(ld.closed) && len(ld.closed[core]) > 0 {
		if measured {
			for _, a := range ld.closed[core] {
				a.OpsUnder++
			}
		}
		ld.closed[core] = ld.closed[core][:0]
	}
	if !measured || core >= len(ld.open) {
		return
	}
	per := ld.open[core]
	for i := range per {
		if per[i].counted {
			per[i].ops++
		}
	}
}

// LedgerTotals is the run-level (per data structure: one structure per
// run) roll-up of the per-line accounting, in JSON report form.
type LedgerTotals struct {
	Leases               uint64  `json:"leases"`
	Expired              uint64  `json:"expired"`
	OpenAtEnd            uint64  `json:"open_at_end"`
	GrantedCycles        uint64  `json:"granted_cycles"`
	UsedCycles           uint64  `json:"used_cycles"`
	UnusedCycles         uint64  `json:"unused_cycles"`
	ExpiredIdleCycles    uint64  `json:"expired_idle_cycles"`
	OpsUnder             uint64  `json:"ops_under_lease"`
	DeferredTxns         uint64  `json:"deferred_txns"`
	DeferInflictedCycles uint64  `json:"defer_inflicted_cycles"`
	Efficiency           float64 `json:"efficiency"`
	Amortization         float64 `json:"amortization"`
}

// Totals aggregates every line's accounting.
func (ld *Ledger) Totals() LedgerTotals {
	var t LedgerTotals
	for _, s := range ld.lines.all() {
		t.Leases += s.Leases
		t.Expired += s.Expired
		t.GrantedCycles += s.GrantedCycles
		t.UsedCycles += s.UsedCycles
		t.UnusedCycles += s.UnusedCycles
		t.ExpiredIdleCycles += s.ExpiredIdleCycles
		t.OpsUnder += s.OpsUnder
		t.DeferredTxns += s.DeferredTxns
		t.DeferInflictedCycles += s.DeferInflictedCycles
	}
	t.OpenAtEnd = uint64(ld.OpenLeases())
	if t.GrantedCycles > 0 {
		t.Efficiency = float64(t.UsedCycles) / float64(t.GrantedCycles)
	}
	if t.Leases > 0 {
		t.Amortization = float64(t.OpsUnder) / float64(t.Leases)
	}
	return t
}

// Lines returns every line's accounting in line address order — the full
// table behind the top-N rankings (conservation tests iterate it).
func (ld *Ledger) Lines() []LineLedger {
	all := make([]LineLedger, 0, ld.lines.n)
	for l, a := range ld.lines.all() {
		all = append(all, LineLedger{l, *a})
	}
	return all
}

// top returns the k highest lines under key, ties broken by lower line
// address — a total order, so rankings are deterministic.
func (ld *Ledger) top(k int, key func(leaseAccount) uint64) []LineLedger {
	r := ranking[LineLedger]{k: k, cmp: func(a, b LineLedger) int {
		return cmp.Or(cmp.Compare(key(b.leaseAccount), key(a.leaseAccount)), cmp.Compare(a.Line, b.Line))
	}}
	for l, a := range ld.lines.all() {
		if key(*a) > 0 {
			r.offer(LineLedger{l, *a})
		}
	}
	return r.best()
}

// TopWasted ranks the k lines with the most wasted cycles (unused grants
// plus idle expiries).
func (ld *Ledger) TopWasted(k int) []LineLedger {
	return ld.top(k, leaseAccount.WastedCycles)
}

// TopDeferInflicted ranks the k lines whose leases inflicted the most
// deferral cycles on other cores.
func (ld *Ledger) TopDeferInflicted(k int) []LineLedger {
	return ld.top(k, func(a leaseAccount) uint64 { return a.DeferInflictedCycles })
}

// LedgerLineSummary is the JSON form of one ranked ledger line (Line is
// its hex rendering), joined with the line's hot-line profile counters:
// lease efficiency alongside the contention that motivated the lease.
type LedgerLineSummary struct {
	Line string `json:"line"`

	Leases               uint64  `json:"leases"`
	Expired              uint64  `json:"expired"`
	GrantedCycles        uint64  `json:"granted_cycles"`
	UsedCycles           uint64  `json:"used_cycles"`
	UnusedCycles         uint64  `json:"unused_cycles"`
	ExpiredIdleCycles    uint64  `json:"expired_idle_cycles"`
	WastedCycles         uint64  `json:"wasted_cycles"`
	OpsUnder             uint64  `json:"ops_under_lease"`
	DeferredTxns         uint64  `json:"deferred_txns"`
	DeferInflictedCycles uint64  `json:"defer_inflicted_cycles"`
	Efficiency           float64 `json:"efficiency"`
	Amortization         float64 `json:"amortization"`

	// The hot-line profile's counters for the line; zero when the profiler
	// never saw it.
	HotScore uint64 `json:"hotline_score"`
	Msgs     uint64 `json:"msgs"`
	Invals   uint64 `json:"invalidations"`
}

// LedgerSummary is the JSON form of the full ledger, as embedded in run
// reports (Result.LeaseLedger / the lease_ledger report field).
type LedgerSummary struct {
	LedgerTotals
	TopWasted         []LedgerLineSummary `json:"top_wasted,omitempty"`
	TopDeferInflicted []LedgerLineSummary `json:"top_defer_inflicted,omitempty"`
}

// Summary digests the ledger: run totals plus the two top-k rankings, each
// line joined with hot's counters and src's traffic (read without making a
// record).
func (ld *Ledger) Summary(k int, hot *HotLines, src TrafficSource) LedgerSummary {
	rows := func(top []LineLedger) []LedgerLineSummary {
		var out []LedgerLineSummary
		for i := range top {
			s := &top[i]
			row := LedgerLineSummary{
				Line:   fmt.Sprintf("%#x", uint64(s.Line)),
				Leases: s.Leases, Expired: s.Expired,
				GrantedCycles: s.GrantedCycles, UsedCycles: s.UsedCycles,
				UnusedCycles: s.UnusedCycles, ExpiredIdleCycles: s.ExpiredIdleCycles,
				WastedCycles: s.WastedCycles(), OpsUnder: s.OpsUnder,
				DeferredTxns:         s.DeferredTxns,
				DeferInflictedCycles: s.DeferInflictedCycles,
				Efficiency:           s.Efficiency(),
				Amortization:         s.Amortization(),
			}
			h := hot.stats(src, s.Line)
			row.HotScore, row.Msgs, row.Invals = h.Score(), h.Msgs, h.Invals
			out = append(out, row)
		}
		return out
	}
	return LedgerSummary{
		LedgerTotals:      ld.Totals(),
		TopWasted:         rows(ld.TopWasted(k)),
		TopDeferInflicted: rows(ld.TopDeferInflicted(k)),
	}
}
