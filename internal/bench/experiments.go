package bench

import (
	"fmt"
	"io"

	"leaserelease/internal/coherence"
	"leaserelease/internal/ds"
	"leaserelease/internal/locks"
	"leaserelease/internal/machine"
	"leaserelease/internal/multiqueue"
	"leaserelease/internal/stm"
	"leaserelease/internal/telemetry"
)

// Params controls the scale of an experiment sweep.
type Params struct {
	Threads []int  // thread counts to sweep
	Warm    uint64 // warmup cycles
	Window  uint64 // measurement window cycles

	// Pool runs the sweep's cells — one (experiment, thread count,
	// variant) measurement each — on a host worker pool. Each cell owns a
	// private simulated machine, and rows are emitted in serial order, so
	// output is byte-identical for any pool size. nil means serial.
	Pool *Pool

	// Protocol selects the coherence protocol backend for every cell of
	// the sweep ("" = MSI); see machine.Config.Protocol.
	Protocol string

	// Exp names the experiment currently sweeping (for progress cell
	// labels); Progress, when non-nil, receives live per-cell progress
	// for the -serve introspection endpoint. Both are host-side only.
	Exp      string
	Progress *Progress
}

// cellName labels one sweep cell for live introspection.
func (p Params) cellName(n int) string {
	if p.Exp == "" {
		return fmt.Sprintf("t%d", n)
	}
	return fmt.Sprintf("%s/t%d", p.Exp, n)
}

// FullParams reproduces the paper's sweeps (2..64 threads, Fig. 2 also 1).
func FullParams() Params {
	return Params{Threads: []int{2, 4, 8, 16, 32, 64}, Warm: 300_000, Window: 1_500_000}
}

// QuickParams is a fast smoke-scale sweep for tests and `-quick`.
func QuickParams() Params {
	return Params{Threads: []int{2, 8}, Warm: 50_000, Window: 200_000}
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID    string // e.g. "fig2"
	Paper string // what it reproduces
	Run   func(w io.Writer, p Params)
}

// All returns every experiment in the paper order of DESIGN.md's index.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: system configuration", runTable1},
		{"fig2", "Figure 2: Treiber stack throughput, with and without leases", runFig2},
		{"fig3-counter", "Figure 3: lock-based counter throughput and energy", runFig3Counter},
		{"fig3-queue", "Figure 3: Michael-Scott queue throughput and energy", runFig3Queue},
		{"fig3-pq", "Figure 3: skiplist priority queue throughput and energy", runFig3PQ},
		{"fig4-mq", "Figure 4: MultiQueues throughput and energy", runFig4MQ},
		{"fig4-tl2", "Figure 4: TL2 transactions throughput, energy, aborts", runFig4TL2},
		{"fig5-swhw", "Figure 5 left: hardware vs software MultiLeases (TL2)", runFig5SwHw},
		{"fig5-pagerank", "Figure 5 right: lock-based Pagerank", runFig5Pagerank},
		{"text-backoff", "§7 text: backoff comparison on the stack", runTextBackoff},
		{"text-lowcontention", "§7 text: low-contention structures, 20% updates", runTextLowContention},
		{"text-constmiss", "§7 text: misses and messages per op stay constant", runTextConstMiss},
		{"ablate-leasetime", "§7 text: MAX_LEASE_TIME 1K vs 20K cycles", runAblateLeaseTime},
		{"ablate-priority", "§5: prioritization (regular requests break leases)", runAblatePriority},
		{"ablate-mesi", "§8: MESI exclusive-clean fills vs plain MSI", runAblateMESI},
		{"ablate-predictor", "§5: speculative predictor skips always-expiring leases", runAblatePredictor},
		{"ablate-autolease", "§8 future work: automatic lease insertion on the plain stack", runAblateAutoLease},
		{"snapshot", "§5: cheap lock-free snapshots vs double-collect", runSnapshot},
		{"degradation", "robustness: throughput retention under core preemption, lease vs lock vs adaptive controller", runDegradation},
		{"protocol-compare", "protocol axis: lease-vs-backoff speedup under MSI vs Tardis at equal contention", runProtocolCompare},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// cfgFor builds the machine config for one sweep cell: the paper's default
// system, on the sweep's coherence protocol.
func (p Params) cfgFor(threads int) machine.Config {
	cfg := machine.DefaultConfig(threads)
	cfg.Protocol = p.Protocol
	return cfg
}

// invalCol names the cycle-accounting column that holds PhaseInval
// cycles: invalidation fan-out under MSI, renewal/rts-extension service
// under Tardis (see telemetry.PhaseName).
func (p Params) invalCol() string {
	return telemetry.PhaseName(telemetry.PhaseInval, p.Protocol)
}

// cell submits one plain throughput measurement as a pool cell.
func (p Params) cell(cfg machine.Config, n int, build func(d *machine.Direct) OpFunc) *Future[Result] {
	cp := p.Progress.Cell(p.cellName(n))
	return Go(p.Pool, func() Result {
		cp.Start()
		defer cp.Done()
		return ThroughputOpts(cfg, n, p.Warm, p.Window, build, Options{Progress: cp})
	})
}

// mcell submits one telemetry-enabled measurement (latency digests plus
// transaction-span cycle accounting) as a pool cell.
func (p Params) mcell(cfg machine.Config, n int, build func(d *machine.Direct) OpFunc) *Future[Result] {
	cp := p.Progress.Cell(p.cellName(n))
	return Go(p.Pool, func() Result {
		cp.Start()
		defer cp.Done()
		return measured(cfg, n, p, build, cp)
	})
}

func runTable1(w io.Writer, p Params) {
	cfg := machine.DefaultConfig(64)
	t := NewTable("parameter", "value")
	t.Row("Core model", fmt.Sprintf("%.0f GHz, in-order, 1-cycle L1", float64(cfg.ClockHz)/1e9))
	t.Row("L1-D cache per tile", fmt.Sprintf("%d KB, %d-way, %d cycle", cfg.L1.SizeBytes/1024, cfg.L1.Ways, cfg.L1HitLat))
	t.Row("L2 tag/data latency", fmt.Sprintf("%d/%d cycles", cfg.Timing.L2Tag, cfg.Timing.L2Data))
	t.Row("Network hop", fmt.Sprintf("%d cycles (+0..%d jitter)", cfg.Timing.Net, cfg.Timing.NetJitter))
	t.Row("DRAM (cold fill)", fmt.Sprintf("%d cycles", cfg.Timing.DRAM))
	t.Row("Cache line", "64 bytes")
	proto := "MSI directory, private L1 / shared L2, per-line FIFO queues"
	if p.Protocol == coherence.ProtocolTardis {
		proto = "Tardis timestamps (wts/rts reservations), private L1 / shared L2, per-line FIFO queues"
	}
	t.Row("Coherence protocol", proto)
	t.Row("MAX_LEASE_TIME", fmt.Sprintf("%d cycles", cfg.Lease.MaxLeaseTime))
	t.Row("MAX_NUM_LEASES", cfg.Lease.MaxNumLeases)
	t.Print(w)
}

// measured runs a telemetry-enabled throughput measurement so experiments
// can report latency distributions (p50/p90/p99) and critical-path cycle
// accounting (Result.Txns) alongside means. Telemetry is host-side only,
// so the simulated numbers are byte-identical to an unmeasured run.
func measured(cfg machine.Config, n int, p Params, build func(d *machine.Direct) OpFunc, cp *CellProgress) Result {
	rec := telemetry.NewRecorder()
	rec.EnableSpans()
	rec.EnableLedger()
	return ThroughputOpts(cfg, n, p.Warm, p.Window, build,
		Options{Recorder: rec, Progress: cp})
}

func runFig2(w io.Writer, p Params) {
	t := NewTable("threads", "base Mops/s", "lease Mops/s", "speedup", "base miss/op", "lease miss/op",
		"base lat p50/p99", "lease lat p50/p99")
	threads := p.Threads
	if threads[0] != 1 {
		threads = append([]int{1}, threads...)
	}
	type row struct{ base, lease *Future[Result] }
	rows := make([]row, len(threads))
	for i, n := range threads {
		rows[i] = row{
			base:  p.mcell(p.cfgFor(n), n, StackWorkload(ds.StackOptions{})),
			lease: p.mcell(p.cfgFor(n), n, StackWorkload(ds.StackOptions{Lease: LeaseTime})),
		}
	}
	for i, n := range threads {
		base, lease := rows[i].base.Get(), rows[i].lease.Get()
		t.Row(n, base.MopsPerSec, lease.MopsPerSec, ratio(lease.MopsPerSec, base.MopsPerSec),
			base.MissesPerOp, lease.MissesPerOp,
			fmtP5099(base.OpLatency), fmtP5099(lease.OpLatency))
	}
	t.Print(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "where the cycles went (leased stack, % of measured op latency):")
	ct := NewTable("threads", "cycles/op", "req-net", "dir-queue", "dir-service",
		p.invalCol(), "probe-defer", "transfer", "l1+compute")
	for i, n := range threads {
		WhereCyclesWentRow(ct, n, rows[i].lease.Get().Txns)
	}
	ct.Print(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "lease-efficiency ledger (leased stack):")
	lt := NewLedgerTable()
	for i, n := range threads {
		LedgerTableRow(lt, n, rows[i].lease.Get().LeaseLedger)
	}
	lt.Print(w)
}

// fmtP5099 renders a latency digest as "p50/p99" cycles.
func fmtP5099(s *telemetry.Summary) string {
	if s == nil || s.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%d/%d", s.P50, s.P99)
}

func runFig3Counter(w io.Writer, p Params) {
	t := NewTable("threads",
		"tts Mops/s", "lease Mops/s", "ticket Mops/s", "clh Mops/s",
		"tts nJ/op", "lease nJ/op", "lease lat p50/p99", "hold p50/p99")
	type row struct{ tts, lease, ticket, clh *Future[Result] }
	rows := make([]row, len(p.Threads))
	for i, n := range p.Threads {
		rows[i] = row{
			tts:    p.cell(p.cfgFor(n), n, CounterWorkload(CounterTTS)),
			lease:  p.mcell(p.cfgFor(n), n, CounterWorkload(CounterLeasedTTS)),
			ticket: p.cell(p.cfgFor(n), n, CounterWorkload(CounterTicket)),
			clh:    p.cell(p.cfgFor(n), n, CounterWorkload(CounterCLH)),
		}
	}
	for i, n := range p.Threads {
		tts, lease := rows[i].tts.Get(), rows[i].lease.Get()
		ticket, clh := rows[i].ticket.Get(), rows[i].clh.Get()
		t.Row(n, tts.MopsPerSec, lease.MopsPerSec, ticket.MopsPerSec, clh.MopsPerSec,
			tts.NJPerOp, lease.NJPerOp, fmtP5099(lease.OpLatency), fmtP5099(lease.LeaseHold))
	}
	t.Print(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "where the cycles went (leased counter, % of measured op latency):")
	ct := NewTable("threads", "cycles/op", "req-net", "dir-queue", "dir-service",
		p.invalCol(), "probe-defer", "transfer", "l1+compute")
	for i, n := range p.Threads {
		WhereCyclesWentRow(ct, n, rows[i].lease.Get().Txns)
	}
	ct.Print(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "lease-efficiency ledger (leased counter):")
	lt := NewLedgerTable()
	for i, n := range p.Threads {
		LedgerTableRow(lt, n, rows[i].lease.Get().LeaseLedger)
	}
	lt.Print(w)
}

// NewLedgerTable starts the sweep-level lease-ledger table: one row per
// thread count summarizing whether that configuration's leases earned
// their keep.
func NewLedgerTable() *Table {
	return NewTable("threads", "leases", "expired", "efficiency", "ops/lease",
		"unused cyc", "wasted cyc", "defer-inflicted cyc")
}

// LedgerTableRow appends one configuration's ledger totals. A nil or
// lease-free summary appends a dash row.
func LedgerTableRow(t *Table, label interface{}, led *telemetry.LedgerSummary) {
	if led == nil || led.Leases == 0 {
		t.Row(label, "-", "-", "-", "-", "-", "-", "-")
		return
	}
	t.Row(label, led.Leases, led.Expired,
		led.Efficiency, led.Amortization,
		led.UnusedCycles, led.UnusedCycles+led.ExpiredIdleCycles,
		led.DeferInflictedCycles)
}

// WhereCyclesWentRow appends one row of a critical-path cycle-accounting
// table: mean cycles per measured operation, then the share of that
// latency in each transaction phase plus the non-coherence remainder
// (L1 hits and local compute). The shares sum to 100% by construction
// (see telemetry.TxnStats). A nil or op-less summary appends a dash row.
func WhereCyclesWentRow(t *Table, label interface{}, tx *telemetry.TxnSummary) {
	if tx == nil || tx.Ops == 0 || tx.OpCycles == 0 || tx.OpPhases == nil {
		t.Row(label, "-", "-", "-", "-", "-", "-", "-", "-")
		return
	}
	pct := func(v uint64) string {
		return fmt.Sprintf("%.1f%%", 100*float64(v)/float64(tx.OpCycles))
	}
	op := tx.OpPhases
	t.Row(label, fmt.Sprintf("%.0f", float64(tx.OpCycles)/float64(tx.Ops)),
		pct(op.ReqNet), pct(op.QueueWait), pct(op.DirService),
		pct(op.InvalWait), pct(op.DeferWait), pct(op.Transfer),
		pct(tx.OpOtherCycles))
}

func runFig3Queue(w io.Writer, p Params) {
	t := NewTable("threads",
		"base Mops/s", "lease Mops/s", "multi Mops/s", "flatcomb Mops/s", "lcrq Mops/s",
		"base nJ/op", "lease nJ/op")
	type row struct{ base, single, multi, fc, lcrq *Future[Result] }
	rows := make([]row, len(p.Threads))
	for i, n := range p.Threads {
		rows[i] = row{
			base:   p.cell(p.cfgFor(n), n, QueueWorkload(ds.QueueNoLease)),
			single: p.cell(p.cfgFor(n), n, QueueWorkload(ds.QueueSingleLease)),
			multi:  p.cell(p.cfgFor(n), n, QueueWorkload(ds.QueueMultiLease)),
			fc:     p.cell(p.cfgFor(n), n, FCQueueWorkload(n)),
			lcrq:   p.cell(p.cfgFor(n), n, LCRQWorkload()),
		}
	}
	for i, n := range p.Threads {
		base, single := rows[i].base.Get(), rows[i].single.Get()
		multi, fc, lcrq := rows[i].multi.Get(), rows[i].fc.Get(), rows[i].lcrq.Get()
		t.Row(n, base.MopsPerSec, single.MopsPerSec, multi.MopsPerSec, fc.MopsPerSec,
			lcrq.MopsPerSec, base.NJPerOp, single.NJPerOp)
	}
	t.Print(w)
}

func runFig3PQ(w io.Writer, p Params) {
	t := NewTable("threads",
		"fine Mops/s", "global Mops/s", "lease Mops/s",
		"fine nJ/op", "lease nJ/op")
	type row struct{ fine, glob, lease *Future[Result] }
	rows := make([]row, len(p.Threads))
	for i, n := range p.Threads {
		rows[i] = row{
			fine:  p.cell(p.cfgFor(n), n, PQWorkload(PQFineLocking, 512)),
			glob:  p.cell(p.cfgFor(n), n, PQWorkload(PQGlobalBase, 512)),
			lease: p.cell(p.cfgFor(n), n, PQWorkload(PQGlobalLeased, 512)),
		}
	}
	for i, n := range p.Threads {
		fine, glob, lease := rows[i].fine.Get(), rows[i].glob.Get(), rows[i].lease.Get()
		t.Row(n, fine.MopsPerSec, glob.MopsPerSec, lease.MopsPerSec,
			fine.NJPerOp, lease.NJPerOp)
	}
	t.Print(w)
}

func runFig4MQ(w io.Writer, p Params) {
	t := NewTable("threads", "base Mops/s", "lease Mops/s", "speedup", "base nJ/op", "lease nJ/op")
	type row struct{ base, lease *Future[Result] }
	rows := make([]row, len(p.Threads))
	for i, n := range p.Threads {
		rows[i] = row{
			base:  p.cell(p.cfgFor(n), n, MQWorkload(multiqueue.Options{})),
			lease: p.cell(p.cfgFor(n), n, MQWorkload(multiqueue.Options{LeaseTime: LeaseTime})),
		}
	}
	for i, n := range p.Threads {
		base, lease := rows[i].base.Get(), rows[i].lease.Get()
		t.Row(n, base.MopsPerSec, lease.MopsPerSec, ratio(lease.MopsPerSec, base.MopsPerSec),
			base.NJPerOp, lease.NJPerOp)
	}
	t.Print(w)
}

func runFig4TL2(w io.Writer, p Params) {
	t := NewTable("threads",
		"base Mtx/s", "multi Mtx/s", "single Mtx/s",
		"base aborts/tx", "multi aborts/tx", "base nJ/tx", "multi nJ/tx")
	type row struct{ base, multi, single *Future[Result] }
	rows := make([]row, len(p.Threads))
	for i, n := range p.Threads {
		rows[i] = row{
			base:   Go(p.Pool, func() Result { return tl2Run(p, n, stm.NoLease) }),
			multi:  Go(p.Pool, func() Result { return tl2Run(p, n, stm.HWMulti) }),
			single: Go(p.Pool, func() Result { return tl2Run(p, n, stm.SingleFirst) }),
		}
	}
	for i, n := range p.Threads {
		base, multi, single := rows[i].base.Get(), rows[i].multi.Get(), rows[i].single.Get()
		t.Row(n, base.MopsPerSec, multi.MopsPerSec, single.MopsPerSec,
			base.AbortsPerOp, multi.AbortsPerOp, base.NJPerOp, multi.NJPerOp)
	}
	t.Print(w)
}

func tl2Run(p Params, n int, mode stm.LeaseMode) Result {
	var aborts uint64
	r := Throughput(p.cfgFor(n), n, p.Warm, p.Window, TL2Workload(mode, &aborts))
	// aborts accumulated over warm+window; approximate the window share.
	if r.Ops > 0 {
		frac := float64(p.Window) / float64(p.Warm+p.Window)
		r.AbortsPerOp = float64(aborts) * frac / float64(r.Ops)
	}
	return r
}

func runFig5SwHw(w io.Writer, p Params) {
	t := NewTable("threads", "hw Mtx/s", "sw Mtx/s", "hw/sw", "hw aborts/tx", "sw aborts/tx")
	type row struct{ hw, sw *Future[Result] }
	rows := make([]row, len(p.Threads))
	for i, n := range p.Threads {
		rows[i] = row{
			hw: Go(p.Pool, func() Result { return tl2Run(p, n, stm.HWMulti) }),
			sw: Go(p.Pool, func() Result { return tl2Run(p, n, stm.SWMulti) }),
		}
	}
	for i, n := range p.Threads {
		hw, sw := rows[i].hw.Get(), rows[i].sw.Get()
		t.Row(n, hw.MopsPerSec, sw.MopsPerSec, ratio(hw.MopsPerSec, sw.MopsPerSec),
			hw.AbortsPerOp, sw.AbortsPerOp)
	}
	t.Print(w)
}

func runFig5Pagerank(w io.Writer, p Params) {
	t := NewTable("threads", "base Mcycles", "lease Mcycles", "speedup")
	nodes, iters := 1024, 3
	if p.Window <= QuickParams().Window {
		nodes, iters = 256, 2
	}
	type prun struct {
		cycles uint64
		err    error
	}
	type row struct {
		n           int
		base, lease *Future[prun]
	}
	var rows []row
	for _, n := range p.Threads {
		if n > 32 {
			continue // the paper evaluates Pagerank up to 32 threads
		}
		rows = append(rows, row{
			n: n,
			base: Go(p.Pool, func() prun {
				c, _, err := PagerankRun(p.cfgFor(n), n, 0, nodes, iters)
				return prun{c, err}
			}),
			lease: Go(p.Pool, func() prun {
				c, _, err := PagerankRun(p.cfgFor(n), n, LeaseTime, nodes, iters)
				return prun{c, err}
			}),
		})
	}
	for _, r := range rows {
		base, lease := r.base.Get(), r.lease.Get()
		if base.err != nil || lease.err != nil {
			fmt.Fprintf(w, "pagerank with %d threads FAILED: base=%v lease=%v\n", r.n, base.err, lease.err)
			continue
		}
		t.Row(r.n, float64(base.cycles)/1e6, float64(lease.cycles)/1e6,
			ratio(float64(base.cycles), float64(lease.cycles)))
	}
	t.Print(w)
}

func runTextBackoff(w io.Writer, p Params) {
	t := NewTable("threads", "base Mops/s", "backoff Mops/s", "tuned-backoff Mops/s",
		"elimination Mops/s", "flatcomb Mops/s", "lease Mops/s")
	type row struct{ base, bo, tuned, elim, fc, lease *Future[Result] }
	rows := make([]row, len(p.Threads))
	for i, n := range p.Threads {
		rows[i] = row{
			base: p.cell(p.cfgFor(n), n, StackWorkload(ds.StackOptions{})),
			bo: p.cell(p.cfgFor(n), n,
				StackWorkload(ds.StackOptions{Backoff: ds.Backoff{Min: 32, Max: 4096}})),
			tuned: p.cell(p.cfgFor(n), n,
				StackWorkload(ds.StackOptions{Backoff: ds.Backoff{Min: 64, Max: 64 * uint64(n)}})),
			elim:  p.cell(p.cfgFor(n), n, EliminationStackWorkload()),
			fc:    p.cell(p.cfgFor(n), n, FCStackWorkload(n)),
			lease: p.cell(p.cfgFor(n), n, StackWorkload(ds.StackOptions{Lease: LeaseTime})),
		}
	}
	for i, n := range p.Threads {
		r := rows[i]
		t.Row(n, r.base.Get().MopsPerSec, r.bo.Get().MopsPerSec, r.tuned.Get().MopsPerSec,
			r.elim.Get().MopsPerSec, r.fc.Get().MopsPerSec, r.lease.Get().MopsPerSec)
	}
	t.Print(w)
}

func runTextLowContention(w io.Writer, p Params) {
	// The paper's observation concerns relative deltas ("throughput is
	// the same... ≤5%"), so this sweep halves the window and skips tiny
	// thread counts to keep seven structures tractable.
	t := NewTable("structure", "threads", "base Mops/s", "lease Mops/s", "delta %")
	keyRange, prefill := 512, 256
	half := p
	half.Window = p.Window / 2
	type row struct {
		kind        SetKind
		n           int
		base, lease *Future[Result]
	}
	var rows []row
	for _, kind := range AllSetKinds() {
		for _, n := range p.Threads {
			if n < 4 && len(p.Threads) > 2 {
				continue
			}
			rows = append(rows, row{
				kind:  kind,
				n:     n,
				base:  half.cell(p.cfgFor(n), n, SetWorkload(kind, 0, keyRange, prefill)),
				lease: half.cell(p.cfgFor(n), n, SetWorkload(kind, LeaseTime, keyRange, prefill)),
			})
		}
	}
	for _, r := range rows {
		base, lease := r.base.Get(), r.lease.Get()
		t.Row(r.kind.String(), r.n, base.MopsPerSec, lease.MopsPerSec,
			100*(lease.MopsPerSec-base.MopsPerSec)/base.MopsPerSec)
	}
	t.Print(w)
}

func runTextConstMiss(w io.Writer, p Params) {
	t := NewTable("threads", "base miss/op", "lease miss/op", "base msgs/op", "lease msgs/op")
	type row struct{ base, lease *Future[Result] }
	rows := make([]row, len(p.Threads))
	for i, n := range p.Threads {
		rows[i] = row{
			base:  p.cell(p.cfgFor(n), n, StackWorkload(ds.StackOptions{})),
			lease: p.cell(p.cfgFor(n), n, StackWorkload(ds.StackOptions{Lease: LeaseTime})),
		}
	}
	for i, n := range p.Threads {
		base, lease := rows[i].base.Get(), rows[i].lease.Get()
		t.Row(n, base.MissesPerOp, lease.MissesPerOp, base.MsgsPerOp, lease.MsgsPerOp)
	}
	t.Print(w)
}

func runAblateLeaseTime(w io.Writer, p Params) {
	// Part 1 (the paper's claim): the stack's misses/op stay constant
	// even with MAX_LEASE_TIME reduced from 20K to 1K cycles, because
	// releases are voluntary long before the bound.
	t := NewTable("threads", "20K Mops/s", "1K Mops/s", "20K miss/op", "1K miss/op", "1K invol-rel/op")
	type row struct{ long, short *Future[Result] }
	rows := make([]row, len(p.Threads))
	for i, n := range p.Threads {
		cfgShort := p.cfgFor(n)
		cfgShort.Lease.MaxLeaseTime = 1000
		rows[i] = row{
			long:  p.cell(p.cfgFor(n), n, StackWorkload(ds.StackOptions{Lease: 20000})),
			short: p.cell(cfgShort, n, StackWorkload(ds.StackOptions{Lease: 1000})),
		}
	}
	for i, n := range p.Threads {
		long, short := rows[i].long.Get(), rows[i].short.Get()
		invol := float64(short.Window.InvoluntaryReleases) / float64(max64(short.Ops, 1))
		t.Row(n, long.MopsPerSec, short.MopsPerSec, long.MissesPerOp, short.MissesPerOp, invol)
	}
	t.Print(w)
	fmt.Fprintln(w)
	// Part 2: when the critical section exceeds MAX_LEASE_TIME (leased
	// lock held ~300 cycles, bound 100), leases expire involuntarily and
	// the benefit degrades toward the base — the bound is load-bearing.
	longCS := func(maxLease, leaseTime uint64) func(d *machine.Direct) OpFunc {
		return func(d *machine.Direct) OpFunc {
			l := locks.NewLeased(locks.NewTTS(d), leaseTime)
			ctr := d.Alloc(8)
			return func(tid int, c *machine.Ctx) {
				l.Lock(c)
				c.Store(ctr, c.Load(ctr)+1)
				c.Work(300)
				l.Unlock(c)
				jitter(c)
			}
		}
	}
	t2 := NewTable("threads", "bound 20K Mops/s", "bound 100 Mops/s", "bound-100 invol-rel/op")
	type row2 struct{ ok, tight *Future[Result] }
	rows2 := make([]row2, len(p.Threads))
	for i, n := range p.Threads {
		cfgTight := p.cfgFor(n)
		cfgTight.Lease.MaxLeaseTime = 100
		rows2[i] = row2{
			ok:    p.cell(p.cfgFor(n), n, longCS(20000, 20000)),
			tight: p.cell(cfgTight, n, longCS(100, 100)),
		}
	}
	for i, n := range p.Threads {
		ok, tight := rows2[i].ok.Get(), rows2[i].tight.Get()
		t2.Row(n, ok.MopsPerSec, tight.MopsPerSec,
			float64(tight.Window.InvoluntaryReleases)/float64(max64(tight.Ops, 1)))
	}
	t2.Print(w)
}

func runAblatePriority(w io.Writer, p Params) {
	// §7 "Observations and Limitations": a thread that leases a lock
	// already owned by another thread and is slow to drop the lease
	// delays the owner's unlock. The prioritization mechanism (§5) lets
	// the owner's regular store break such leases. This workload makes
	// waiters improperly hold the lease for a while after a failed
	// try-lock, with and without prioritization.
	t := NewTable("threads", "queueing Mops/s", "breaking Mops/s", "speedup", "broken/op")
	type row struct{ plain, brk *Future[Result] }
	rows := make([]row, len(p.Threads))
	for i, n := range p.Threads {
		cfgBrk := p.cfgFor(n)
		cfgBrk.RegularBreaksLease = true
		rows[i] = row{
			plain: p.cell(p.cfgFor(n), n, ImproperLockWorkload()),
			brk:   p.cell(cfgBrk, n, ImproperLockWorkload()),
		}
	}
	for i, n := range p.Threads {
		plain, brk := rows[i].plain.Get(), rows[i].brk.Get()
		t.Row(n, plain.MopsPerSec, brk.MopsPerSec, ratio(brk.MopsPerSec, plain.MopsPerSec),
			float64(brk.Window.BrokenLeases)/float64(max64(brk.Ops, 1)))
	}
	t.Print(w)
}

func runAblateMESI(w io.Writer, p Params) {
	// MESI helps read-then-write patterns most: the low-contention sets
	// (search, then update in place) and the base stack's load-then-CAS.
	t := NewTable("workload", "threads", "msi Mops/s", "mesi Mops/s", "delta %")
	type row struct{ msi, mesi *Future[Result] }
	cells := func(build func(n int) func(d *machine.Direct) OpFunc) []row {
		rows := make([]row, len(p.Threads))
		for i, n := range p.Threads {
			cfgM := p.cfgFor(n)
			cfgM.MESI = true
			rows[i] = row{
				msi:  p.cell(p.cfgFor(n), n, build(n)),
				mesi: p.cell(cfgM, n, build(n)),
			}
		}
		return rows
	}
	hash := cells(func(int) func(d *machine.Direct) OpFunc { return SetWorkload(SetHash, 0, 1024, 512) })
	stack := cells(func(int) func(d *machine.Direct) OpFunc { return StackWorkload(ds.StackOptions{}) })
	emit := func(name string, rows []row) {
		for i, n := range p.Threads {
			msi, mesi := rows[i].msi.Get(), rows[i].mesi.Get()
			t.Row(name, n, msi.MopsPerSec, mesi.MopsPerSec,
				100*(mesi.MopsPerSec-msi.MopsPerSec)/msi.MopsPerSec)
		}
	}
	emit("hashtable", hash)
	emit("stack-base", stack)
	t.Print(w)
}

func runAblatePredictor(w io.Writer, p Params) {
	// A pathological lease site: the leased critical window always
	// outlives MAX_LEASE_TIME, so every lease expires involuntarily and
	// only adds deferral latency. The §5 predictor learns to skip it.
	t := NewTable("threads", "no-lease Mops/s", "bad-lease Mops/s", "predictor Mops/s", "ignored/op")
	pathological := func(lease bool) func(d *machine.Direct) OpFunc {
		return func(d *machine.Direct) OpFunc {
			a := d.Alloc(8)
			return func(tid int, c *machine.Ctx) {
				if lease {
					c.LeaseAt(1, a, 300)
				}
				v := c.Load(a)
				c.Work(1500)
				c.CAS(a, v, v+1)
				if lease {
					c.Release(a)
				}
			}
		}
	}
	type row struct{ base, bad, pred *Future[Result] }
	rows := make([]row, len(p.Threads))
	for i, n := range p.Threads {
		cfgBase := p.cfgFor(n)
		cfgBase.Lease.MaxLeaseTime = 300
		cfgPred := cfgBase
		cfgPred.Predictor.Enable = true
		rows[i] = row{
			base: p.cell(cfgBase, n, pathological(false)),
			bad:  p.cell(cfgBase, n, pathological(true)),
			pred: p.cell(cfgPred, n, pathological(true)),
		}
	}
	for i, n := range p.Threads {
		base, bad, pred := rows[i].base.Get(), rows[i].bad.Get(), rows[i].pred.Get()
		t.Row(n, base.MopsPerSec, bad.MopsPerSec, pred.MopsPerSec,
			float64(pred.Window.IgnoredLeases)/float64(max64(pred.Ops, 1)))
	}
	t.Print(w)
}

func runAblateAutoLease(w io.Writer, p Params) {
	// The plain (lease-free) Treiber stack run through the Auto wrapper:
	// automatic insertion should recover most of the manual-lease win
	// without touching the data structure code.
	t := NewTable("threads", "base Mops/s", "auto Mops/s", "manual Mops/s", "auto/manual")
	type row struct{ base, auto, manual *Future[Result] }
	rows := make([]row, len(p.Threads))
	for i, n := range p.Threads {
		rows[i] = row{
			base:   p.cell(p.cfgFor(n), n, StackWorkload(ds.StackOptions{})),
			auto:   p.cell(p.cfgFor(n), n, AutoStackWorkload()),
			manual: p.cell(p.cfgFor(n), n, StackWorkload(ds.StackOptions{Lease: LeaseTime})),
		}
	}
	for i, n := range p.Threads {
		base, auto, manual := rows[i].base.Get(), rows[i].auto.Get(), rows[i].manual.Get()
		t.Row(n, base.MopsPerSec, auto.MopsPerSec, manual.MopsPerSec,
			ratio(auto.MopsPerSec, manual.MopsPerSec))
	}
	t.Print(w)
}

func runSnapshot(w io.Writer, p Params) {
	// Half the threads write all words under a joint lease; half take
	// 4-word snapshots. Snapshot counts/rounds are over warm+window.
	t := NewTable("threads", "lease snaps", "dcollect snaps", "lease rounds/snap", "dcollect rounds/snap")
	type snap struct{ attempts, snaps uint64 }
	type row struct {
		n            int
		lease, dcoll *Future[snap]
	}
	var rows []row
	for _, n := range p.Threads {
		if n < 2 {
			continue
		}
		rows = append(rows, row{
			n: n,
			lease: Go(p.Pool, func() snap {
				var s snap
				Throughput(p.cfgFor(n), n, p.Warm, p.Window, SnapshotWorkload(true, 4, &s.attempts, &s.snaps))
				return s
			}),
			dcoll: Go(p.Pool, func() snap {
				var s snap
				Throughput(p.cfgFor(n), n, p.Warm, p.Window, SnapshotWorkload(false, 4, &s.attempts, &s.snaps))
				return s
			}),
		})
	}
	for _, r := range rows {
		lease, dcoll := r.lease.Get(), r.dcoll.Get()
		t.Row(r.n, lease.snaps, dcoll.snaps,
			float64(lease.attempts)/float64(max64(lease.snaps, 1)),
			float64(dcoll.attempts)/float64(max64(dcoll.snaps, 1)))
	}
	t.Print(w)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
