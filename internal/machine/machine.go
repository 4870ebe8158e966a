// Package machine assembles the full simulated multicore: event engine,
// per-core L1 caches and lease tables, the coherence directory with its line
// policy (MSI by default, Tardis timestamp coherence via Config.Protocol),
// the backing store, and the Ctx instruction-set surface that simulated
// programs are written against.
//
// It corresponds to the paper's modified Graphite setup: "we extended the
// L1 cache controller logic (at the cores) to implement memory leases. As
// such, the directory did not have to be modified in any way." Here, too,
// all lease logic lives on the core side (DeliverProbe, release paths);
// the coherence.Directory is lease-agnostic apart from waiting for
// ProbeDone — though a policy with native reservations (Tardis) is
// additionally notified of lease starts/releases so it can mirror them
// onto its own timestamp mechanism (see coherence.Policy).
package machine

import (
	"fmt"

	"leaserelease/internal/cache"
	"leaserelease/internal/coherence"
	"leaserelease/internal/coherence/tardis"
	"leaserelease/internal/core"
	"leaserelease/internal/faults"
	"leaserelease/internal/mem"
	"leaserelease/internal/sim"
	"leaserelease/internal/telemetry"
)

// Machine is one simulated multicore chip.
type Machine struct {
	cfg   Config
	eng   *sim.Engine
	store mem.Store
	alloc *mem.Allocator
	proto *coherence.Directory
	cores []*coreState

	stats   Stats // machine-level counters (caches keep their own)
	spawned int
	bus     *telemetry.Bus   // nil until Telemetry() — telemetry disabled
	faults  *faults.Injector // nil unless cfg.Faults injects something

	// finishedAt is the latest cycle at which a thread's body returned.
	finishedAt uint64

	// syncMisses makes every miss Sync before the thread issues it: half
	// of the differential test's reference order (SyncMisses), never set
	// outside tests.
	syncMisses bool

	// spinning is the number of cores with a parked spin; spinParks and
	// spinElided count parks and the loads performed in bulk (Ctx.Spin).
	spinning              int
	spinParks, spinElided uint64
}

// ProtocolViolationError is the panic value raised when simulated hardware
// state contradicts a protocol invariant (e.g. Proposition 1's single
// queued probe, or a pinned set with an empty lease table). It indicates a
// simulator bug — not a recoverable simulation condition — but carrying a
// typed value lets harnesses recover it into a structured diagnostic
// instead of dying on a bare string.
type ProtocolViolationError struct {
	Rule   string   // short invariant name
	Core   int      // core involved, or -1
	Line   mem.Line // line involved, or 0
	Detail string
}

func (e *ProtocolViolationError) Error() string {
	return fmt.Sprintf("machine: protocol violation [%s] core %d line %#x: %s",
		e.Rule, e.Core, uint64(e.Line), e.Detail)
}

type coreState struct {
	id     int
	l1     *cache.Cache
	leases *core.Table
	proc   *sim.Proc
	dom    *sim.Domain    // the core's scheduling domain
	arena  *mem.Allocator // per-core allocation arena (Ctx.Alloc)
	pred   *leasePredictor
	ctrl   *leaseController
	txnSeq uint64 // per-core transaction counter (span tracing only)

	// req is the core's reusable coherence request: an in-order core has
	// at most one outstanding transaction, so one pooled Request per core
	// replaces a heap allocation per miss. reqBusy backs the race-build
	// poison mode (see pool_poison_race.go).
	req     *coherence.Request
	reqBusy bool

	// issue and submit send the pooled request, bound once in New. submit
	// is for a thread that has synchronized and seen its Lookup miss; issue
	// looks the line up first, at the time it runs (Machine.issue).
	issue, submit func()

	// expiries is the free list of pooled lease-expiry records (startLease).
	expiries *expiry

	// lines is the reusable buffer a MultiLease sorts its group into.
	lines []mem.Line

	// spin is the core's parked spin, if spin.active (Ctx.Spin).
	spin spinState
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	if cfg.Cores <= 0 || cfg.Cores > 64 {
		panic("machine: Cores must be in 1..64")
	}
	m := &Machine{
		cfg:   cfg,
		eng:   sim.NewEngine(),
		alloc: mem.NewAllocator(),
	}
	m.faults = faults.New(cfg.Faults, cfg.Seed)
	switch cfg.Protocol {
	case "", coherence.ProtocolMSI:
		m.proto = coherence.NewDirectory(m.eng, (*dirEnv)(m), cfg.Timing)
	case coherence.ProtocolTardis:
		m.proto = tardis.New(m.eng, (*dirEnv)(m), cfg.Timing, tardis.Config{}, cfg.Cores)
	default:
		panic(fmt.Sprintf("machine: unknown Protocol %q (valid: %v)", cfg.Protocol, coherence.Protocols()))
	}
	m.proto.MESI = cfg.MESI // Tardis has no Exclusive-clean state and ignores it
	m.proto.Faults = m.faults
	l1cfg := cfg.L1
	if ways := cfg.Faults.CapWays(l1cfg.Ways); ways != l1cfg.Ways {
		// Capacity pressure: shrink associativity (and size with it, so
		// the set count — and thus line-to-set mapping — is unchanged).
		l1cfg.SizeBytes = l1cfg.SizeBytes / l1cfg.Ways * ways
		l1cfg.Ways = ways
	}
	m.cores = make([]*coreState, cfg.Cores)
	for i := range m.cores {
		cs := &coreState{
			id:     i,
			l1:     cache.New(l1cfg),
			leases: core.NewTable(cfg.Lease),
			dom:    m.eng.Domain(uint32(i)),
			arena:  mem.NewArena(i),
			pred:   newLeasePredictor(cfg.Predictor),
			ctrl:   newLeaseController(cfg.Controller, cfg.Lease.MaxLeaseTime),
			req:    new(coherence.Request),
		}
		cs.issue = func() { m.issue(cs) }
		cs.submit = func() { m.submit(cs) }
		m.cores[i] = cs
	}
	// The lookahead certificate of the run-ahead hit (Ctx.access): every
	// cross-domain message of either protocol is scheduled through its
	// sender's domain with at least Timing.Net cycles of latency, and the
	// fault injector only ever adds to that. The engine enforces it from
	// here on; a Net of 0 declares nothing, and then no access runs ahead.
	m.eng.DeclareLookahead(cfg.Timing.Net)
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Now returns the current simulated time in cycles.
func (m *Machine) Now() uint64 { return m.eng.Now() }

// FinishedAt returns the cycle at which the last thread to finish so far
// returned: what a fixed-work run took. After a Run that drained the queue,
// Now can be thousands of cycles later. Cancellation of expiry timers is
// lazy, so the timers of leases released long before still pop, one after
// another, and each moves the clock.
func (m *Machine) FinishedAt() uint64 { return m.finishedAt }

// Spawn starts a simulated thread running fn on the next free core at time
// start. It panics if all cores are occupied.
func (m *Machine) Spawn(start uint64, fn func(*Ctx)) {
	if m.spawned >= len(m.cores) {
		panic("machine: more threads than cores")
	}
	cs := m.cores[m.spawned]
	id := m.spawned
	m.spawned++
	cs.proc = m.eng.Spawn(id, start, m.cfg.Seed*1_000_003+uint64(id)*2_654_435_761+1, func(p *sim.Proc) {
		fn(&Ctx{m: m, cs: cs, p: p})
		m.finishedAt = max(m.finishedAt, p.Reached())
	})
}

// Run advances the simulation until the given absolute cycle (or until all
// threads finish). It returns a *sim.DeadlockError if the simulation
// deadlocks — which Lease/Release guarantees cannot happen unless the
// protocol is misused (see the unsorted-multilease negative test).
//
// A core parked in Ctx.Spin is caught up when Run returns: its loads before
// the clock have been performed. If the queue drains with a core parked,
// only events could have ended its spin, so the loop it stands for would
// have run on to untilCycle: Run leaves the clock there and returns nil, as
// it would have. Drain, which has no such horizon, reports the parked cores
// in a *sim.DeadlockError (the loop would never have returned).
func (m *Machine) Run(untilCycle uint64) error {
	err := m.eng.Run(untilCycle)
	if m.spinning == 0 {
		return err
	}
	if _, drained := err.(*sim.DeadlockError); drained && untilCycle != sim.MaxTime {
		m.eng.IdleUntil(max(untilCycle, m.eng.Now()))
		err = nil
	}
	for _, cs := range m.cores {
		m.spinTo(cs, m.eng.Now())
	}
	return err
}

// Drain runs until all threads finish.
func (m *Machine) Drain() error { return m.Run(sim.MaxTime) }

// EngineStats returns the event kernel's host-side counters for the run so
// far: events executed and how proc wake-ups were paid for (sim.EngineStats),
// with the machine's spin counts. Call while the machine is idle (between or
// after Runs).
func (m *Machine) EngineStats() sim.EngineStats {
	st := m.eng.Stats()
	st.SpinParks, st.SpinLoadsElided = m.spinParks, m.spinElided
	return st
}

// Stop tears down all still-blocked threads. Call after the final Run so
// machines do not leak goroutines.
func (m *Machine) Stop() { m.eng.KillAll() }

// Stats returns a snapshot of all hardware counters.
func (m *Machine) Stats() Stats {
	s := m.stats
	s.Cycles = m.eng.Now()
	for _, c := range m.cores {
		s.L1Hits += c.l1.Hits
		s.L1Misses += c.l1.Misses
	}
	ps := m.proto.Stats
	s.DeferredProbes = ps.DeferredProbes
	s.MaxDirQueue = ps.MaxQueue
	s.Renewals = ps.Renewals
	s.RTSJumps = ps.RTSJumps
	return s
}

// ProtocolName returns the canonical name of the active protocol.
func (m *Machine) ProtocolName() string { return m.proto.Name() }

// VerifyCoherence cross-checks every tracked line's committed protocol
// state against the cores' L1 states and the protocol's own internal
// invariants (MSI agreement for the directory, timestamp order for
// Tardis). Lines with in-flight transactions are skipped. Call when the
// simulation is quiescent (after Run/Drain); it returns the first
// violation found.
func (m *Machine) VerifyCoherence() error {
	for v := range m.proto.Lines() {
		if err := m.VerifyLine(v.Line); err != nil {
			return err
		}
	}
	return nil
}

// VerifyLine cross-checks one line's committed protocol state against
// every core's L1 state; a line mid-transaction is skipped (nil). The
// runtime invariant checker calls this on every event touching the line,
// which is how state corruption (e.g. a second writer) is caught within
// one event of its introduction.
func (m *Machine) VerifyLine(l mem.Line) error {
	return m.proto.VerifyLine(l, len(m.cores), func(core int) cache.State {
		return m.cores[core].l1.State(l)
	})
}

// Peek reads a word directly from the backing store (setup/verification
// only; no timing, no coherence).
func (m *Machine) Peek(a mem.Addr) uint64 { return m.store.Load(a) }

// ---- lease-side mechanics shared by Ctx ops, probes, and timers ----

// issue sends the core's pooled request for a line the thread found missing
// ahead of the event queue (Ctx.access), at the thread's local clock: the L1
// lookup, and with it the miss count, happens here. The line cannot have
// been granted in between — an in-order core with no transaction outstanding
// gains a permission only from a grant — and a line the core holds by now
// is a simulator bug.
func (m *Machine) issue(cs *coreState) {
	req := cs.req
	if cs.l1.Lookup(req.Line, req.Excl) {
		panic(&ProtocolViolationError{Rule: "miss-monotone", Core: cs.id, Line: req.Line,
			Detail: "a line missing when the access was decided is held when its miss issues"})
	}
	m.submit(cs)
}

// submit sends the core's pooled request to the directory.
func (m *Machine) submit(cs *coreState) {
	m.mintTxn(cs, cs.req)
	m.proto.Submit(cs.req)
}

// mintTxn assigns req a machine-unique transaction ID and emits TxnBegin,
// if and only if someone subscribed to span tracing. With tracing off the
// cost is Bus.Wants — a nil check plus one bitmask test — and req.Txn
// stays zero, which keeps every downstream CatTxn emit site to a single
// predictable branch.
func (m *Machine) mintTxn(cs *coreState, req *coherence.Request) {
	if !m.bus.Wants(telemetry.CatTxn) {
		return
	}
	cs.txnSeq++
	req.Txn = telemetry.TxnID(cs.id, cs.txnSeq)
	var flags uint64
	if req.Excl {
		flags |= telemetry.TxnFlagExcl
	}
	if req.Lease {
		flags |= telemetry.TxnFlagLease
	}
	m.bus.Emit2(telemetry.CatTxn, cs.id, telemetry.TxnBegin, req.Line, req.Txn, flags)
}

// startLease reports a lease whose countdown has just started (core.Table's
// Start or StartGroup) to the protocol and the bus, and arms its
// involuntary-release timer, a pooled expiry record. Cancellation is lazy: the
// timer checks the entry generation. Fault injection may pull the timer
// earlier (Entry.Timer) — an involuntary break before the full duration,
// always legal since MAX_LEASE_TIME is only an upper bound.
func (m *Machine) startLease(cs *coreState, e *core.Entry) {
	m.proto.LeaseStarted(cs.id, e.Line, e.Duration)
	m.traceVal(cs, telemetry.LeaseStarted, e.Line, e.Duration)
	e.Timer -= m.faults.LeaseCut(e.Duration)
	cs.dom.At(e.Timer, m.expiry(cs, e.Line, e.Gen))
}

// expire frees x, then ends its lease if the table still holds that
// generation.
func (m *Machine) expire(x *expiry) {
	cs, line, gen := x.cs, x.line, x.gen
	m.freeExpiry(x)
	if cs.spin.active {
		m.spinTo(cs, cs.dom.Now()) // a lease end changes what its preemption draws see
	}
	if e, ok := cs.leases.RemoveIfGen(line, gen); ok {
		m.endLease(cs, e, telemetry.LeaseExpired, cs.dom.Now())
	} // else released voluntarily (or evicted) in the meantime
}

// leaseEnds says, for each kind of event that ends a lease, what the end
// counts and records.
var leaseEnds = [...]struct {
	count     func(*Stats) *uint64 // the counter it increments
	voluntary bool                 // the outcome the site's predictor and controller record
	mayDefer  bool                 // a deferred probe may wait on the entry
}{
	telemetry.LeaseReleased: {func(s *Stats) *uint64 { return &s.VoluntaryReleases }, true, true},
	telemetry.LeaseEvicted:  {func(s *Stats) *uint64 { return &s.EvictedLeases }, true, true},
	telemetry.LeaseForced:   {func(s *Stats) *uint64 { return &s.ForcedReleases }, true, true},
	telemetry.LeaseExpired:  {func(s *Stats) *uint64 { return &s.InvoluntaryReleases }, false, true},
	// The probe that breaks a lease (§5 prioritization) was forwarded because
	// none was waiting (Proposition 1), and DeliverProbe serves it itself.
	telemetry.LeaseBroken: {func(s *Stats) *uint64 { return &s.BrokenLeases }, false, false},
}

// endLease is the core-side end of a lease whose entry e has just left the
// table (e is a copy; its slot may hold another lease by now), at the
// caller's instant now. kind, the event that reports it, is the cause:
// released by the program, FIFO-evicted by a newer lease, forced
// out to unpin a full L1 set, expired, or broken by a regular request. The
// end is counted and reported with the cycles the lease was held
// (telemetry.NoVal if its countdown never started), the site's predictor and
// controller record the outcome, the line is unpinned, the protocol told, and
// the (at most one) probe deferred behind the lease is served: downgrade the
// local copy and let the directory finish the stalled transaction.
func (m *Machine) endLease(cs *coreState, e core.Entry, kind uint8, now uint64) {
	end := &leaseEnds[kind]
	*end.count(&m.stats)++
	hold := uint64(telemetry.NoVal)
	if g, ok := e.GrantCycle(); ok {
		hold = now - g
	}
	m.traceVal(cs, kind, e.Line, hold)
	if kind != telemetry.LeaseBroken { // a broken lease says nothing about its site
		cs.pred.record(e.Site, end.voluntary)
		if shrank, grew := cs.ctrl.record(e.Site, end.voluntary); shrank {
			m.stats.CtrlShrinks++
		} else if grew {
			m.stats.CtrlGrows++
		}
	}
	cs.l1.Unpin(e.Line)
	m.proto.LeaseReleased(cs.id, e.Line)
	p := e.TakeProbe()
	if p == nil {
		return
	}
	if !end.mayDefer {
		panic(&ProtocolViolationError{Rule: "proposition-1", Core: cs.id, Line: e.Line,
			Detail: "broken lease already had a deferred probe"})
	}
	req := p.(*coherence.Request)
	m.bus.Emit2(telemetry.CatLease, cs.id, telemetry.ProbeServed, e.Line,
		cs.dom.Now()-e.ProbeQueuedAt, req.Txn)
	to := cache.Shared
	if req.Excl {
		to = cache.Invalid
	}
	m.downgrade(cs, req.Line, to, now)
	m.proto.ProbeDone(cs.id, req)
}

// maybePreempt is the fault model's preemption point, reached before a
// core issues a memory access: the "OS" may deschedule the core for a
// drawn duration, which it returns. The proc simply stops issuing events
// while its local clock advances (sim.Proc.Preempt); expiry timers armed on
// the cache hardware keep firing, so held leases expire involuntarily per
// Algorithm 1 — exactly the bounded-delay scenario of §3. write feeds
// the targeted mode's holder test: a core holding a lease, or issuing an
// exclusive access (inside or entering a critical section for lock-based
// structures), counts as a holder.
func (m *Machine) maybePreempt(cs *coreState, write bool) uint64 {
	if m.faults == nil {
		return 0
	}
	return m.preempt(cs, write)
}

// preempt is maybePreempt with an injector.
func (m *Machine) preempt(cs *coreState, write bool) uint64 {
	holder := write || cs.leases.Len() > 0
	d := m.faults.Preempt(cs.id, holder)
	if d == 0 {
		return 0
	}
	m.stats.Preemptions++
	m.stats.PreemptedCycles += d
	if holder {
		m.stats.HolderPreemptions++
	}
	cs.proc.Preempt(d)
	return d
}

// installLine places a granted line into the core's L1, force-releasing
// leases if the target set is fully pinned, and notifying the directory of
// dirty evictions.
func (m *Machine) installLine(cs *coreState, l mem.Line, st cache.State) {
	for {
		_, _, allPinned := cs.l1.Victim(l)
		if !allPinned {
			break
		}
		e, ok := cs.leases.RemoveOldest()
		if !ok {
			panic(&ProtocolViolationError{Rule: "pinned-set", Core: cs.id, Line: l,
				Detail: "L1 set fully pinned but lease table empty"})
		}
		m.endLease(cs, e, telemetry.LeaseForced, cs.dom.Now())
	}
	victim, vst, evicted := cs.l1.Install(l, st)
	if !evicted {
		return
	}
	switch vst {
	case cache.Modified:
		m.proto.Writeback(cs.id, victim)
	case cache.Shared:
		m.proto.SharerDrop(cs.id, victim)
	}
}

// ---- coherence.Env implementation ----
//
// dirEnv is Machine under a separate method set so that the Env methods do
// not pollute Machine's public API.
type dirEnv Machine

func (d *dirEnv) m() *Machine { return (*Machine)(d) }

// DeliverProbe implements the lease check of Algorithm 1 ("upon event
// Coherence-Probe"): a probe hitting an active lease is queued at the core
// until the lease is released or expires.
func (d *dirEnv) DeliverProbe(owner int, req *coherence.Request) bool {
	m := d.m()
	cs := m.cores[owner]
	if cs.spin.active {
		m.spinTo(cs, cs.dom.Now()+1) // the probe may break a lease, which preemption draws see
	}
	if cs.leases.ShouldDefer(req.Line, cs.dom.Now()) {
		if m.cfg.RegularBreaksLease && !req.Lease {
			// §5 prioritization: a regular request breaks the lease.
			e, _ := cs.leases.Remove(req.Line)
			m.endLease(cs, e, telemetry.LeaseBroken, cs.dom.Now())
		} else {
			cs.leases.QueueProbe(req.Line, req).ProbeQueuedAt = cs.dom.Now()
			m.trace(cs, telemetry.ProbeDeferred, req.Line)
			return true
		}
	}
	to := cache.Shared
	if req.Excl {
		to = cache.Invalid
	}
	m.downgrade(cs, req.Line, to, cs.dom.Now()+1)
	return false
}

// Invalidate drops a sharer's copy (an invalidation, or a Tardis lapse).
func (d *dirEnv) Invalidate(c int, l mem.Line) {
	m := d.m()
	cs := m.cores[c]
	m.downgrade(cs, l, cache.Invalid, cs.dom.Now()+1)
}

// Complete installs the granted line, starts a pending lease countdown if
// the transaction was lease-initiated, and resumes the stalled thread.
func (d *dirEnv) Complete(req *coherence.Request, st cache.State) {
	m := d.m()
	cs := m.cores[req.Core]
	m.installLine(cs, req.Line, st)
	if req.Lease {
		if e := cs.leases.Find(req.Line); e != nil {
			if e.InGroup {
				// Group countdowns start jointly once the whole group
				// is owned (Ctx.MultiLease drives StartGroup).
				cs.l1.Pin(req.Line)
			} else if started := cs.leases.Start(req.Line, cs.dom.Now()); started != nil {
				cs.l1.Pin(req.Line)
				m.startLease(cs, started)
			}
		}
	}
	cs.proc.WakeAt(cs.dom.Now())
}

func (d *dirEnv) CountMsg(kind coherence.MsgKind, n int) { d.m().stats.Msgs[kind] += uint64(n) }

func (d *dirEnv) CountL2()   { d.m().stats.L2Accesses++ }
func (d *dirEnv) CountDRAM() { d.m().stats.DRAMAccesses++ }

var _ coherence.Env = (*dirEnv)(nil)

// describeReq names the block reason for a coherence miss. It returns one
// of four static strings so the miss path stays allocation-free; the line
// being waited on is recovered from the core's pooled in-flight request on
// the cold dump path (see DumpState), not carried in the string.
func describeReq(req *coherence.Request) string {
	switch {
	case req.Excl && req.Lease:
		return "waiting for GetX(lease)"
	case req.Excl:
		return "waiting for GetX"
	case req.Lease:
		return "waiting for GetS(lease)"
	default:
		return "waiting for GetS"
	}
}
