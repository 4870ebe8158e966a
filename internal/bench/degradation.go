package bench

import (
	"fmt"
	"io"
	"slices"

	"leaserelease/internal/machine"
)

// This file implements the `degradation` experiment family: throughput
// retention of contended-stack variants under deterministic core
// preemption (the robustness question the paper's fault-free evaluation
// leaves open). A preempted core simply stops issuing events for the
// drawn duration while its lease timers keep counting down in the cache
// hardware — so a preempted lease holder's leases expire involuntarily
// and victims queued behind it drain after at most MAX_LEASE_TIME,
// whereas a preempted lock holder parks every waiter for the whole
// preemption. The sweep quantifies exactly that gap, and whether the
// adaptive lease-duration controller narrows it further.

// degradationRates is the swept per-preemption-point probability
// (permille). Rate 0 leaves fault injection disabled entirely, so its
// column is byte-identical to a clean run and anchors the retention
// baseline.
var degradationRates = []int{0, 2, 5, 10}

// Preemption durations are drawn uniformly from [Min, Max]: 5-15x
// MAX_LEASE_TIME (20K). The separation matters — a preempted lease
// holder blocks its victims only until the lease deadline, while a
// preempted lock holder blocks every waiter for the whole preemption,
// so the retention gap between the variants scales with duration /
// MAX_LEASE_TIME. With durations comparable to the lease bound the gap
// vanishes (both stall victims about equally long) and the comparison
// degenerates into counting eligible preemption points. Sweep windows
// should cover many durations; use >= 10x PreemptMax (>= 3M cycles).
const (
	degradationPreemptMin = 100_000
	degradationPreemptMax = 300_000
)

// degradationCfg puts one sweep cell's machine config under preemption.
// Rate 0 keeps Faults zero so existing golden outputs are untouched; rate > 0
// sets only the preemption fields, so no other fault draws happen and
// the schedule is a pure function of (seed, core, rate).
//
// The schedule is untargeted OS jitter: every core is eligible at every
// access, like a kernel descheduling threads obliviously. (Targeted
// stalled-holder mode remains available via leasesim -preempttargeted;
// it is deliberately not used here because holder-only preemption is
// self-limiting for the lock variant — at most one core at a time is
// making progress, so at most one can be hit — which flattens the very
// curve this sweep measures.)
func degradationCfg(cfg *machine.Config, rate int, ctrl bool) {
	if rate > 0 {
		cfg.Faults.PreemptPermille = rate
		cfg.Faults.PreemptMin = degradationPreemptMin
		cfg.Faults.PreemptMax = degradationPreemptMax
	}
	cfg.Controller = ctrl // the adaptive lease-duration controller
}

// degradation's grid is rates × variants at the sweep's largest thread
// count, where contention (and so preemption collateral damage) is worst.
// It prints its own tables: two are transposed (a row per variant) and the
// retention table reads each variant's rate-0 row as its baseline.
func degradation(p Params) Sweep {
	n := slices.Max(p.Threads)
	rows := make([]Row, len(degradationRates))
	for i, rate := range degradationRates {
		rows[i] = Row{Threads: n, Key: fmt.Sprintf("rate%d", rate), Val: rate}
	}
	under := func(ctrl bool) func(*machine.Config, Row) {
		return func(cfg *machine.Config, r Row) { degradationCfg(cfg, r.Val, ctrl) }
	}
	vs := variants{
		{Name: "lock", Build: always(LockStackWorkload()), Edit: under(false), Measured: true},
		{Name: "lockfree", Build: baseStack, Edit: under(false), Measured: true},
		{Name: "backoff", Build: tunedBackoffStack, Edit: under(false), Measured: true},
		{Name: "lease", Build: leaseStack, Edit: under(false), Measured: true},
		{Name: "lease+ctrl", Build: leaseStack, Edit: under(true), Measured: true},
	}
	const firstLeased = 3 // the variants the lease accounting table is about
	return Sweep{Rows: rows, Variants: vs, Print: func(w io.Writer, res [][]Result) {
		fmt.Fprintf(w, "degradation sweep: %d threads, preempt %d..%d cycles, rates in permille per access\n\n",
			n, degradationPreemptMin, degradationPreemptMax)
		topRow := len(rows) - 1
		top := rows[topRow].Val
		// byRate prints a table with a row per preemption rate, from row
		// `from` on, and a column per variant.
		byRate := func(unit string, from int, cell func(ri, vi int) any) {
			head := []string{"preempt rate"}
			for _, v := range vs {
				head = append(head, v.Name+unit)
			}
			t := NewTable(head...)
			for ri := from; ri < len(rows); ri++ {
				row := []any{fmt.Sprintf("%d/1000", rows[ri].Val)}
				for vi := range vs {
					row = append(row, cell(ri, vi))
				}
				t.Row(row...)
			}
			t.Print(w)
			fmt.Fprintln(w)
		}

		// Table 1: absolute throughput by rate x variant.
		byRate(" Mops/s", 0, func(ri, vi int) any { return res[ri][vi].MopsPerSec })

		// Table 2: throughput retention relative to the variant's own
		// rate-0 baseline (row 0) — the degradation curve proper.
		fmt.Fprintln(w, "throughput retention (% of the variant's own fault-free throughput):")
		byRate(" %", 1, func(ri, vi int) any {
			return fmt.Sprintf("%.1f", 100*DegradationRetention(res[0][vi], res[ri][vi]))
		})

		// Table 3: worst-case victim wait at the top rate — how long ops
		// stall behind a descheduled holder.
		fmt.Fprintf(w, "victim wait at the top rate (%d/1000):\n", top)
		vt := NewTable("variant", "op lat p50", "p99", "max",
			"probe-defer p99", "preemptions", "preempted cyc", "holder hits")
		for vi, v := range vs {
			r := res[topRow][vi]
			lat, defer99 := r.OpLatency, "-"
			if r.ProbeDefer != nil && r.ProbeDefer.Count > 0 {
				defer99 = fmt.Sprintf("%d", r.ProbeDefer.P99)
			}
			p50, p99, mx := "-", "-", "-"
			if lat != nil && lat.Count > 0 {
				p50 = fmt.Sprintf("%d", lat.P50)
				p99 = fmt.Sprintf("%d", lat.P99)
				mx = fmt.Sprintf("%d", lat.Max)
			}
			vt.Row(v.Name, p50, p99, mx, defer99,
				r.Window.Preemptions, r.Window.PreemptedCycles, r.Window.HolderPreemptions)
		}
		vt.Print(w)
		fmt.Fprintln(w)

		// Table 4: what preemption does to the lease machinery at the top
		// rate — involuntary expiries, controller activity, ledger waste.
		fmt.Fprintf(w, "lease accounting under faults (%d/1000):\n", top)
		at := NewTable("variant", "leases", "invol rel", "ctrl clamp", "ctrl shrink", "ctrl grow",
			"efficiency", "wasted cyc", "defer-inflicted cyc")
		for vi := firstLeased; vi < len(vs); vi++ {
			r := res[topRow][vi]
			eff, wasted, inflicted := "-", "-", "-"
			if l := r.LeaseLedger; l != nil && l.Leases > 0 {
				eff = fmt.Sprintf("%.3f", l.Efficiency)
				wasted = fmt.Sprintf("%d", l.UnusedCycles+l.ExpiredIdleCycles)
				inflicted = fmt.Sprintf("%d", l.DeferInflictedCycles)
			}
			at.Row(vs[vi].Name, r.Window.Leases, r.Window.InvoluntaryReleases,
				r.Window.CtrlClamps, r.Window.CtrlShrinks, r.Window.CtrlGrows,
				eff, wasted, inflicted)
		}
		at.Print(w)
	}}
}

// DegradationRetention returns faulted throughput as a fraction of the
// fault-free baseline (0 when the baseline measured nothing). Exported
// for the smoke test's lease-beats-lock assertion.
func DegradationRetention(base, faulted Result) float64 {
	return ratio(faulted.MopsPerSec, base.MopsPerSec)
}
