package bench

import (
	"fmt"
	"io"
	"slices"

	"leaserelease/internal/apps/pagerank"
	"leaserelease/internal/coherence"
	"leaserelease/internal/ds"
	"leaserelease/internal/locks"
	"leaserelease/internal/machine"
	"leaserelease/internal/multiqueue"
	"leaserelease/internal/stm"
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
}

// FullParams reproduces the paper's sweeps (2..64 threads, Fig. 2 also 1).
func FullParams() Params {
	return Params{Threads: []int{2, 4, 8, 16, 32, 64}, Warm: 300_000, Window: 1_500_000}
}

// QuickParams is a fast smoke-scale sweep for tests and `-quick`.
func QuickParams() Params {
	return Params{Threads: []int{2, 8}, Warm: 50_000, Window: 200_000}
}

// Experiment regenerates one table or figure of the paper. Sweep is its
// declaration — the grid of cells and the tables read from it — at the
// given scale (sweep.go).
type Experiment struct {
	ID    string // e.g. "fig2"
	Paper string // what it reproduces
	Sweep func(p Params) Sweep
}

// Run measures every cell of the experiment's grid on p.Pool and prints its
// tables to w. It returns the cells that failed (deadlock, livelock, panic,
// protocol violation, blown cycle budget), each also named on a FAILED line
// under the tables; the other cells are unaffected.
func (e Experiment) Run(w io.Writer, p Params) []CellFailure {
	return runSweep(w, p, e.ID, e.Sweep(p))
}

// All returns every experiment in the paper order of DESIGN.md's index.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: system configuration", table1},
		{"fig2", "Figure 2: Treiber stack throughput, with and without leases", fig2},
		{"fig3-counter", "Figure 3: lock-based counter throughput and energy", fig3Counter},
		{"fig3-queue", "Figure 3: Michael-Scott queue throughput and energy", fig3Queue},
		{"fig3-pq", "Figure 3: skiplist priority queue throughput and energy", fig3PQ},
		{"fig4-mq", "Figure 4: MultiQueues throughput and energy", fig4MQ},
		{"fig4-tl2", "Figure 4: TL2 transactions throughput, energy, aborts", fig4TL2},
		{"fig5-swhw", "Figure 5 left: hardware vs software MultiLeases (TL2)", fig5SwHw},
		{"fig5-pagerank", "Figure 5 right: lock-based Pagerank", fig5Pagerank},
		{"text-backoff", "§7 text: backoff comparison on the stack", textBackoff},
		{"text-lowcontention", "§7 text: low-contention structures, 20% updates", textLowContention},
		{"text-constmiss", "§7 text: misses and messages per op stay constant", textConstMiss},
		{"ablate-leasetime", "§7 text: MAX_LEASE_TIME 1K vs 20K cycles", ablateLeaseTime},
		{"ablate-priority", "§5: prioritization (regular requests break leases)", ablatePriority},
		{"ablate-mesi", "§8: MESI exclusive-clean fills vs plain MSI", ablateMESI},
		{"ablate-predictor", "§5: speculative predictor skips always-expiring leases", ablatePredictor},
		{"ablate-autolease", "§8 future work: automatic lease insertion on the plain stack", ablateAutoLease},
		{"snapshot", "§5: cheap lock-free snapshots vs double-collect", snapshot},
		{"degradation", "robustness: throughput retention under core preemption, lease vs lock vs adaptive controller", degradation},
		{"protocol-compare", "protocol axis: lease-vs-backoff speedup under MSI vs Tardis at equal contention", protocolCompare},
		{"tune-leasetime", "ledger: the leased stack's lease duration against its hold tail", tuneLeaseTime},
	}
}

// cfgFor builds the machine config for one sweep cell: the paper's default
// system, on the sweep's coherence protocol.
func (p Params) cfgFor(threads int) machine.Config {
	cfg := machine.DefaultConfig(threads)
	cfg.Protocol = p.Protocol
	return cfg
}

// Builds several declarations share: the Treiber stack as it is, with the
// paper's lease, and with its best software rival — backoff capped in
// proportion to the thread count.
func baseStack(Row) Workload  { return StackWorkload(ds.StackOptions{}) }
func leaseStack(Row) Workload { return StackWorkload(ds.StackOptions{Lease: LeaseTime}) }
func tunedBackoffStack(r Row) Workload {
	return StackWorkload(ds.StackOptions{Backoff: ds.Backoff{Min: 64, Max: 64 * uint64(r.Threads)}})
}

func table1(p Params) Sweep {
	cfg := machine.DefaultConfig(64)
	proto := "MSI directory, private L1 / shared L2, per-line FIFO queues"
	if p.Protocol == coherence.ProtocolTardis {
		proto = "Tardis timestamps (wts/rts reservations), private L1 / shared L2, per-line FIFO queues"
	}
	row := func(param string, value any) Row { return Row{Lead: []any{param, value}} }
	return Sweep{
		Lead: []string{"parameter", "value"},
		Rows: []Row{
			row("Core model", fmt.Sprintf("%.0f GHz, in-order, 1-cycle L1", float64(cfg.ClockHz)/1e9)),
			row("L1-D cache per tile", fmt.Sprintf("%d KB, %d-way, %d cycle", cfg.L1.SizeBytes/1024, cfg.L1.Ways, cfg.L1HitLat)),
			row("L2 tag/data latency", fmt.Sprintf("%d/%d cycles", cfg.Timing.L2Tag, cfg.Timing.L2Data)),
			row("Network hop", fmt.Sprintf("%d cycles (+0..%d jitter)", cfg.Timing.Net, cfg.Timing.NetJitter)),
			row("DRAM (cold fill)", fmt.Sprintf("%d cycles", cfg.Timing.DRAM)),
			row("Cache line", "64 bytes"),
			row("Coherence protocol", proto),
			row("MAX_LEASE_TIME", fmt.Sprintf("%d cycles", cfg.Lease.MaxLeaseTime)),
			row("MAX_NUM_LEASES", cfg.Lease.MaxNumLeases),
		},
		Tables: []TableSpec{{}},
	}
}

func fig2(p Params) Sweep {
	threads := p.Threads
	if !slices.Contains(threads, 1) {
		threads = append([]int{1}, threads...)
	}
	const base, lease = 0, 1
	vs := variants{
		{Name: "base", Build: baseStack, Measured: true},
		{Name: "lease", Build: leaseStack, Measured: true},
	}
	return Sweep{Rows: threadRows(threads), Variants: vs, Tables: []TableSpec{
		{Cols: []Col{vs.mops(base), vs.mops(lease), speedup("speedup", lease, base),
			vs.miss(base), vs.miss(lease), vs.lat(base), vs.lat(lease)}},
		cyclesTable(p, "leased stack", lease),
		ledgerTable("leased stack", lease),
	}}
}

func fig3Counter(p Params) Sweep {
	const tts, lease, ticket, clh = 0, 1, 2, 3
	vs := variants{
		{Name: "tts", Build: always(CounterWorkload(CounterTTS))},
		{Name: "lease", Build: always(CounterWorkload(CounterLeasedTTS)), Measured: true},
		{Name: "ticket", Build: always(CounterWorkload(CounterTicket))},
		{Name: "clh", Build: always(CounterWorkload(CounterCLH))},
	}
	return Sweep{Rows: threadRows(p.Threads), Variants: vs, Tables: []TableSpec{
		{Cols: []Col{vs.mops(tts), vs.mops(lease), vs.mops(ticket), vs.mops(clh),
			vs.nj(tts), vs.nj(lease), vs.lat(lease),
			{"hold p50/p99", func(res []Result) any { return fmtP5099(res[lease].LeaseHold) }}}},
		cyclesTable(p, "leased counter", lease),
		ledgerTable("leased counter", lease),
	}}
}

func fig3Queue(p Params) Sweep {
	vs := variants{
		{Name: "base", Build: always(QueueWorkload(ds.QueueNoLease))},
		{Name: "lease", Build: always(QueueWorkload(ds.QueueSingleLease))},
		{Name: "multi", Build: always(QueueWorkload(ds.QueueMultiLease))},
		{Name: "flatcomb", Build: func(r Row) Workload {
			return PairWorkload(func(x machine.API) ds.Container { return ds.NewFCQueue(x, r.Threads) })
		}},
		{Name: "lcrq", Build: always(PairWorkload(func(x machine.API) ds.Container { return ds.NewLCRQ(x, 1024) }))},
	}
	return Sweep{Rows: threadRows(p.Threads), Variants: vs, Tables: []TableSpec{{Cols: []Col{
		vs.mops(0), vs.mops(1), vs.mops(2), vs.mops(3), vs.mops(4), vs.nj(0), vs.nj(1)}}}}
}

func fig3PQ(p Params) Sweep {
	const fine, global, lease = 0, 1, 2
	vs := variants{
		{Name: "fine", Build: always(PQWorkload(PQFineLocking, 512))},
		{Name: "global", Build: always(PQWorkload(PQGlobalBase, 512))},
		{Name: "lease", Build: always(PQWorkload(PQGlobalLeased, 512))},
	}
	return Sweep{Rows: threadRows(p.Threads), Variants: vs, Tables: []TableSpec{{Cols: []Col{
		vs.mops(fine), vs.mops(global), vs.mops(lease), vs.nj(fine), vs.nj(lease)}}}}
}

func fig4MQ(p Params) Sweep {
	const base, lease = 0, 1
	vs := variants{
		{Name: "base", Build: always(MQWorkload(multiqueue.Options{}))},
		{Name: "lease", Build: always(MQWorkload(multiqueue.Options{LeaseTime: LeaseTime}))},
	}
	return Sweep{Rows: threadRows(p.Threads), Variants: vs, Tables: []TableSpec{{Cols: []Col{
		vs.mops(base), vs.mops(lease), speedup("speedup", lease, base), vs.nj(base), vs.nj(lease)}}}}
}

// tl2Variant runs the TL2 workload, which counts its own aborts. They
// accumulate over warm+window (Result.Aborts); the window's share is
// approximated by its share of the cycles.
func tl2Variant(name string, mode stm.LeaseMode) Variant {
	return Variant{Name: name, Run: func(p Params, cfg machine.Config, r Row, o Options) Result {
		var aborts uint64
		res := ThroughputOpts(cfg, r.Threads, p.Warm, p.Window, TL2Workload(mode, &aborts), o)
		if res.Err == nil {
			res.Aborts = aborts
		}
		if res.Ops > 0 {
			frac := float64(p.Window) / float64(p.Warm+p.Window)
			res.AbortsPerOp = float64(aborts) * frac / float64(res.Ops)
		}
		return res
	}}
}

func fig4TL2(p Params) Sweep {
	const base, multi, single = 0, 1, 2
	vs := variants{tl2Variant("base", stm.NoLease), tl2Variant("multi", stm.HWMulti), tl2Variant("single", stm.SingleFirst)}
	return Sweep{Rows: threadRows(p.Threads), Variants: vs, Tables: []TableSpec{{Cols: []Col{
		vs.num(base, "Mtx/s", mopsOf), vs.num(multi, "Mtx/s", mopsOf), vs.num(single, "Mtx/s", mopsOf),
		vs.num(base, "aborts/tx", abortsOf), vs.num(multi, "aborts/tx", abortsOf),
		vs.num(base, "nJ/tx", njOf), vs.num(multi, "nJ/tx", njOf)}}}}
}

func fig5SwHw(p Params) Sweep {
	const hw, sw = 0, 1
	vs := variants{tl2Variant("hw", stm.HWMulti), tl2Variant("sw", stm.SWMulti)}
	return Sweep{Rows: threadRows(p.Threads), Variants: vs, Tables: []TableSpec{{Cols: []Col{
		vs.num(hw, "Mtx/s", mopsOf), vs.num(sw, "Mtx/s", mopsOf), speedup("hw/sw", hw, sw),
		vs.num(hw, "aborts/tx", abortsOf), vs.num(sw, "aborts/tx", abortsOf)}}}}
}

// pagerankVariant runs the Figure 5 (right) application to completion under
// the default cycle budget: Result.Cycles is when its last thread finished.
func pagerankVariant(name string, leaseTime uint64) Variant {
	return Variant{Name: name, Run: func(p Params, cfg machine.Config, r Row, o Options) Result {
		pcfg := pagerank.DefaultConfig(r.Threads)
		pcfg.Nodes, pcfg.Iterations, pcfg.LeaseTime = 1024, 3, leaseTime
		if p.Window <= QuickParams().Window {
			pcfg.Nodes, pcfg.Iterations = 256, 2
		}
		return RunToCompletion(cfg, r.Threads, 0, func(d *machine.Direct) func(int, *machine.Ctx) {
			pr := pagerank.New(d, pcfg)
			return func(tid int, c *machine.Ctx) { pr.Run(c, tid) }
		}, o)
	}}
}

func fig5Pagerank(p Params) Sweep {
	const base, lease = 0, 1
	var threads []int
	for _, n := range p.Threads {
		if n <= 32 { // the paper evaluates Pagerank up to 32 threads
			threads = append(threads, n)
		}
	}
	mcycles := func(r Result) float64 { return float64(r.Cycles) / 1e6 }
	vs := variants{pagerankVariant("base", 0), pagerankVariant("lease", LeaseTime)}
	return Sweep{Rows: threadRows(threads), Variants: vs, Tables: []TableSpec{{Cols: []Col{
		vs.num(base, "Mcycles", mcycles), vs.num(lease, "Mcycles", mcycles),
		ratioCol("speedup", base, lease, mcycles)}}}}
}

func textBackoff(p Params) Sweep {
	vs := variants{
		{Name: "base", Build: baseStack},
		{Name: "backoff", Build: always(StackWorkload(ds.StackOptions{Backoff: ds.Backoff{Min: 32, Max: 4096}}))},
		{Name: "tuned-backoff", Build: tunedBackoffStack},
		{Name: "elimination", Build: always(PairWorkload(func(x machine.API) ds.Container { return ds.NewEliminationStack(x, 4) }))},
		{Name: "flatcomb", Build: func(r Row) Workload {
			return PairWorkload(func(x machine.API) ds.Container { return ds.NewFCStack(x, r.Threads) })
		}},
		{Name: "lease", Build: leaseStack},
	}
	return Sweep{Rows: threadRows(p.Threads), Variants: vs, Tables: []TableSpec{{Cols: []Col{
		vs.mops(0), vs.mops(1), vs.mops(2), vs.mops(3), vs.mops(4), vs.mops(5)}}}}
}

// textLowContention runs the seven sets of ds.Sets(). The paper's
// observation concerns relative deltas ("throughput is the same... ≤5%"),
// so this sweep halves the window and skips tiny thread counts to keep
// seven structures tractable.
func textLowContention(p Params) Sweep {
	const base, lease = 0, 1
	sets := ds.Sets()
	var rows []Row
	for i, s := range sets {
		for _, n := range p.Threads {
			if n >= 4 || len(p.Threads) <= 2 {
				rows = append(rows, Row{Threads: n, Key: s.Title, Val: i})
			}
		}
	}
	set := func(leaseTime uint64) func(Row) Workload {
		return func(r Row) Workload {
			return SetWorkload(func(x machine.API) ds.Set { return sets[r.Val].New(x, leaseTime, 512/4) }, 512, 256)
		}
	}
	vs := variants{{Name: "base", Build: set(0)}, {Name: "lease", Build: set(LeaseTime)}}
	return Sweep{Rows: rows, Variants: vs, HalfWindow: true, Lead: []string{"structure", "threads"},
		Tables: []TableSpec{{Cols: []Col{vs.mops(base), vs.mops(lease), deltaCol(lease, base)}}}}
}

func textConstMiss(p Params) Sweep {
	const base, lease = 0, 1
	vs := variants{{Name: "base", Build: baseStack}, {Name: "lease", Build: leaseStack}}
	return Sweep{Rows: threadRows(p.Threads), Variants: vs, Tables: []TableSpec{{Cols: []Col{
		vs.miss(base), vs.miss(lease), vs.msgs(base), vs.msgs(lease)}}}}
}

// maxLeaseTime is the Edit that sets MAX_LEASE_TIME.
func maxLeaseTime(cycles uint64) func(*machine.Config, Row) {
	return func(cfg *machine.Config, _ Row) { cfg.Lease.MaxLeaseTime = cycles }
}

func ablateLeaseTime(p Params) Sweep {
	// A leased lock held ~300 cycles: longer than a MAX_LEASE_TIME of 100.
	longCS := func(leaseTime uint64) Workload {
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
	const long, short, ok, tight = 0, 1, 2, 3
	vs := variants{
		{Name: "20K", Build: always(StackWorkload(ds.StackOptions{Lease: 20000}))},
		{Name: "1K", Build: always(StackWorkload(ds.StackOptions{Lease: 1000})), Edit: maxLeaseTime(1000)},
		{Name: "bound-20K", Build: always(longCS(20000))},
		{Name: "bound-100", Build: always(longCS(100)), Edit: maxLeaseTime(100)},
	}
	involuntary := func(s machine.Stats) uint64 { return s.InvoluntaryReleases }
	return Sweep{Rows: threadRows(p.Threads), Variants: vs, Tables: []TableSpec{
		// The paper's claim: the stack's misses/op stay constant even with
		// MAX_LEASE_TIME reduced from 20K to 1K cycles, because releases are
		// voluntary long before the bound.
		{Cols: []Col{vs.mops(long), vs.mops(short), vs.miss(long), vs.miss(short),
			perOpCol("1K invol-rel/op", short, involuntary)}},
		// When the critical section exceeds MAX_LEASE_TIME, leases expire
		// involuntarily and the benefit degrades toward the base — the bound
		// is load-bearing.
		{Cols: []Col{vs.mops(ok), vs.mops(tight), perOpCol("bound-100 invol-rel/op", tight, involuntary)}},
	}}
}

// tuneLeaseDurations are tune-leasetime's rows: the paper's 20K, then
// durations from above the leased stack's hold tail to well inside it.
var tuneLeaseDurations = []int{20000, 200, 100, 50, 25}

// tuneLeaseTime reads the lease-efficiency ledger of the leased stack with
// its leases clamped to each duration (MAX_LEASE_TIME), at the sweep's
// largest thread count: a duration below the hold tail shows as expired
// leases and lost throughput, one above it as unused granted cycles.
func tuneLeaseTime(p Params) Sweep {
	n := slices.Max(p.Threads)
	rows := make([]Row, len(tuneLeaseDurations))
	for i, d := range tuneLeaseDurations {
		rows[i] = Row{Threads: n, Key: fmt.Sprint(d), Val: d}
	}
	const lease = 0
	vs := variants{{Name: "lease", Build: leaseStack, Measured: true,
		Edit: func(cfg *machine.Config, r Row) { cfg.Lease.MaxLeaseTime = uint64(r.Val) }}}
	t := ledgerTable("leased stack", lease)
	t.Cols = append([]Col{vs.mops(lease),
		{"hold p50/p99", func(res []Result) any { return fmtP5099(res[lease].LeaseHold) }}}, t.Cols...)
	return Sweep{Rows: rows, Variants: vs, Lead: []string{"leasetime", "threads"}, Tables: []TableSpec{t}}
}

// ablatePriority: §7 "Observations and Limitations": a thread that leases a
// lock already owned by another thread and is slow to drop the lease delays
// the owner's unlock. The prioritization mechanism (§5) lets the owner's
// regular store break such leases. This workload makes waiters improperly
// hold the lease for a while after a failed try-lock, with and without
// prioritization.
func ablatePriority(p Params) Sweep {
	const queueing, breaking = 0, 1
	vs := variants{
		{Name: "queueing", Build: always(ImproperLockWorkload())},
		{Name: "breaking", Build: always(ImproperLockWorkload()),
			Edit: func(cfg *machine.Config, _ Row) { cfg.RegularBreaksLease = true }},
	}
	return Sweep{Rows: threadRows(p.Threads), Variants: vs, Tables: []TableSpec{{Cols: []Col{
		vs.mops(queueing), vs.mops(breaking), speedup("speedup", breaking, queueing),
		perOpCol("broken/op", breaking, func(s machine.Stats) uint64 { return s.BrokenLeases })}}}}
}

// ablateMESI: MESI helps read-then-write patterns most: the low-contention
// sets (search, then update in place) and the base stack's load-then-CAS.
func ablateMESI(p Params) Sweep {
	const msi, mesi = 0, 1
	workloads := []struct {
		name string
		w    Workload
	}{
		{"hashtable", SetWorkload(func(x machine.API) ds.Set { return ds.NewHashSet(x, 1024/4, 0) }, 1024, 512)},
		{"stack-base", StackWorkload(ds.StackOptions{})},
	}
	var rows []Row
	for i, wl := range workloads {
		for _, n := range p.Threads {
			rows = append(rows, Row{Threads: n, Key: wl.name, Val: i})
		}
	}
	build := func(r Row) Workload { return workloads[r.Val].w }
	vs := variants{
		{Name: "msi", Build: build},
		{Name: "mesi", Build: build, Edit: func(cfg *machine.Config, _ Row) { cfg.MESI = true }},
	}
	return Sweep{Rows: rows, Variants: vs, Lead: []string{"workload", "threads"},
		Tables: []TableSpec{{Cols: []Col{vs.mops(msi), vs.mops(mesi), deltaCol(mesi, msi)}}}}
}

// ablatePredictor: a pathological lease site — the leased critical window
// always outlives MAX_LEASE_TIME, so every lease expires involuntarily and
// only adds deferral latency. The §5 predictor learns to skip it.
func ablatePredictor(p Params) Sweep {
	pathological := func(lease bool) Workload {
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
	const noLease, badLease, predictor = 0, 1, 2
	vs := variants{
		{Name: "no-lease", Build: always(pathological(false)), Edit: maxLeaseTime(300)},
		{Name: "bad-lease", Build: always(pathological(true)), Edit: maxLeaseTime(300)},
		{Name: "predictor", Build: always(pathological(true)), Edit: func(cfg *machine.Config, _ Row) {
			cfg.Lease.MaxLeaseTime = 300
			cfg.Predictor = true
		}},
	}
	return Sweep{Rows: threadRows(p.Threads), Variants: vs, Tables: []TableSpec{{Cols: []Col{
		vs.mops(noLease), vs.mops(badLease), vs.mops(predictor),
		perOpCol("ignored/op", predictor, func(s machine.Stats) uint64 { return s.IgnoredLeases })}}}}
}

// ablateAutoLease: the plain (lease-free) Treiber stack run through the Auto
// wrapper — automatic insertion should recover most of the manual-lease win
// without touching the data structure code.
func ablateAutoLease(p Params) Sweep {
	const base, auto, manual = 0, 1, 2
	vs := variants{
		{Name: "base", Build: baseStack},
		{Name: "auto", Build: always(AutoStackWorkload())},
		{Name: "manual", Build: leaseStack},
	}
	return Sweep{Rows: threadRows(p.Threads), Variants: vs, Tables: []TableSpec{{Cols: []Col{
		vs.mops(base), vs.mops(auto), vs.mops(manual), speedup("auto/manual", auto, manual)}}}}
}

// snapshotVariant: half the threads write all words under a joint lease;
// half take 4-word snapshots. The workload counts its snapshots and retry
// rounds itself, over warm+window.
func snapshotVariant(name string, useLease bool) Variant {
	return Variant{Name: name, Run: func(p Params, cfg machine.Config, r Row, o Options) Result {
		var rounds, snaps uint64
		res := ThroughputOpts(cfg, r.Threads, p.Warm, p.Window, SnapshotWorkload(useLease, 4, &rounds, &snaps), o)
		res.Snapshots, res.SnapshotRounds = snaps, rounds
		return res
	}}
}

func snapshot(p Params) Sweep {
	const lease, dcollect = 0, 1
	var threads []int
	for _, n := range p.Threads {
		if n >= 2 { // a writer and a snapshotter
			threads = append(threads, n)
		}
	}
	vs := variants{snapshotVariant("lease", true), snapshotVariant("dcollect", false)}
	snaps := func(r Result) any { return r.Snapshots }
	rounds := func(r Result) float64 { return float64(r.SnapshotRounds) / float64(max(r.Snapshots, 1)) }
	return Sweep{Rows: threadRows(threads), Variants: vs, Tables: []TableSpec{{Cols: []Col{
		vs.col(lease, "snaps", snaps), vs.col(dcollect, "snaps", snaps),
		vs.num(lease, "rounds/snap", rounds), vs.num(dcollect, "rounds/snap", rounds)}}}}
}

// protocolCompare is the headline result of the pluggable-protocol
// subsystem. The paper evaluates lease/release on a single directory-MSI
// substrate, leaving open how much of the benefit is protocol-specific; here
// the same contended workload runs under MSI and under Tardis timestamp
// coherence with identical seeds, so the lease-vs-backoff speedup can be
// read as a function of the underlying protocol — the protocol is one more
// per-variant config edit. Tardis's read reservations already behave like
// hardware leases (rts extension instead of invalidation), so the
// interesting question is how much headroom an explicit lease adds on top —
// versus on MSI, where deferral is the only write-side protection.
func protocolCompare(p Params) Sweep {
	const base, backoff, lease, perProtocol = 0, 1, 2, 3 // variant index = protocol*perProtocol + these
	var vs variants
	for _, proto := range coherence.Protocols() {
		on := func(cfg *machine.Config, _ Row) {
			cfg.Protocol = protocolTag(proto) // "" for MSI: cells match other sweeps exactly
		}
		vs = append(vs,
			Variant{Name: proto + "-base", Build: baseStack, Edit: on},
			Variant{Name: proto + "-backoff", Build: tunedBackoffStack, Edit: on},
			Variant{Name: proto + "-lease", Build: leaseStack, Edit: on, Measured: true})
	}
	// versus compares the leased stack with a rival, protocol by protocol.
	versus := func(rival int, name string) (cols []Col) {
		for i, proto := range coherence.Protocols() {
			r, l := i*perProtocol+rival, i*perProtocol+lease
			cols = append(cols,
				Col{proto + " " + name, func(res []Result) any { return res[r].MopsPerSec }},
				Col{proto + " lease", func(res []Result) any { return res[l].MopsPerSec }},
				speedup(proto+" speedup", l, r))
		}
		return cols
	}
	const msi, tardis = 0 * perProtocol, 1 * perProtocol
	return Sweep{Rows: threadRows(p.Threads), Variants: vs, Tables: []TableSpec{
		{Title: "lease vs tuned backoff on the Treiber stack, per coherence protocol\n" +
			"(identical seeds and contention; speedup = lease Mops / backoff Mops):",
			Cols: versus(backoff, "backoff")},
		{Title: "lease benefit over the unprotected stack, per protocol:", Cols: versus(base, "base")},
		{Title: "coherence behavior of the unprotected stack (per op):\n" +
			"(readers take shared copies here, so the protocols diverge: MSI pays\n" +
			" invalidation fan-out on every write, Tardis lets reservations expire\n" +
			" silently — renewals are tag-only re-reads, rts-jumps are writes that\n" +
			" leapt a live reservation instead of invalidating it)",
			Cols: []Col{
				{"msi msgs/op", func(res []Result) any { return res[msi].MsgsPerOp }},
				perOpCol("msi inval/op", msi, func(s machine.Stats) uint64 { return s.Msgs[coherence.MsgInval] }),
				{"tardis msgs/op", func(res []Result) any { return res[tardis].MsgsPerOp }},
				perOpCol("tardis renew/op", tardis, func(s machine.Stats) uint64 { return s.Renewals }),
				perOpCol("tardis rtsjump/op", tardis, func(s machine.Stats) uint64 { return s.RTSJumps }),
			}},
	}}
}
