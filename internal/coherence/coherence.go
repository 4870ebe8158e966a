// Package coherence implements a transaction-level directory-based MSI
// cache coherence protocol with per-line FIFO request queues, the substrate
// the paper's Lease/Release mechanism plugs into.
//
// The directory matches the paper's setup (§7): "The directory structure in
// Graphite implements a separate request queue per cache line" — this is
// the paper's Assumption 1, on which the MultiLease deadlock-freedom proof
// (Proposition 3) rests. One request per line is in service at a time
// (Proposition 1: at most a single outstanding request can be queued at a
// core); all others wait in the line's FIFO queue at the directory.
//
// The package owns protocol state and timing; the per-core side (L1 state
// changes, lease deferral decisions, waking the requesting core) is
// delegated to an Env implemented by the machine package, keeping this
// state machine independently testable.
package coherence

import (
	"fmt"

	"leaserelease/internal/cache"
	"leaserelease/internal/faults"
	"leaserelease/internal/mem"
	"leaserelease/internal/sim"
	"leaserelease/internal/telemetry"
)

// MsgKind classifies coherence messages for traffic and energy accounting.
// The values alias the telemetry package's canonical numbering, so bus
// events carry MsgKind verbatim in Event.Kind.
type MsgKind int

const (
	// MsgRequest is a core's GetS/GetX request to the directory.
	MsgRequest = MsgKind(telemetry.MsgRequest)
	// MsgReply is a data/grant reply to the requesting core.
	MsgReply = MsgKind(telemetry.MsgReply)
	// MsgForward is a directory-to-owner probe forward.
	MsgForward = MsgKind(telemetry.MsgForward)
	// MsgInval is a directory-to-sharer invalidation.
	MsgInval = MsgKind(telemetry.MsgInval)
	// MsgAck is an acknowledgment (invalidation ack or ownership-transfer
	// notice to the directory).
	MsgAck = MsgKind(telemetry.MsgAck)
	// MsgWriteback is a dirty-eviction writeback notice.
	MsgWriteback = MsgKind(telemetry.MsgWriteback)
)

// NumMsgKinds is the number of distinct message kinds.
const NumMsgKinds = telemetry.NumMsgKinds

func (k MsgKind) String() string {
	switch k {
	case MsgRequest:
		return "request"
	case MsgReply:
		return "reply"
	case MsgForward:
		return "forward"
	case MsgInval:
		return "inval"
	case MsgAck:
		return "ack"
	case MsgWriteback:
		return "writeback"
	}
	return fmt.Sprintf("MsgKind(%d)", int(k))
}

// Timing holds the latency parameters of the memory system beyond L1,
// in core cycles.
type Timing struct {
	Net    sim.Time // one network hop (core <-> directory/L2, core <-> core)
	L2Tag  sim.Time // L2/directory tag lookup
	L2Data sim.Time
	Inval  sim.Time // probe/invalidation processing at a core
	DRAM   sim.Time // extra latency for the first-ever (cold) fill of a line

	// NetJitter adds a deterministic pseudo-random 0..NetJitter cycles to
	// each request's network traversal, modeling mesh routing/occupancy
	// variability. Without it the fully synchronous simulation can lock
	// into unrealistically failure-free convoys (real hardware — and even
	// the loosely-synchronized Graphite — has such jitter implicitly).
	NetJitter sim.Time
}

// DefaultTiming mirrors the paper's Table 1 (L2 tag/data 3/8 cycles) with
// a 15-cycle mesh hop and 100-cycle DRAM.
func DefaultTiming() Timing {
	return Timing{Net: 15, L2Tag: 3, L2Data: 8, Inval: 2, DRAM: 100, NetJitter: 4}
}

// Request is one coherence transaction: a core asking for a line in Shared
// (Excl=false) or Modified (Excl=true) state.
type Request struct {
	Core  int
	Line  mem.Line
	Excl  bool
	Lease bool // initiated by a Lease instruction (see Config.RegularBreaksLease)

	// Txn is the transaction ID minted at the requesting core when span
	// tracing is enabled (telemetry.CatTxn has a subscriber); zero
	// otherwise. Every CatTxn event the transaction spawns — through the
	// directory, the owner's lease table, and back — carries it in
	// Event.Val, so the span assembler can reconstruct the causal tree.
	Txn uint64

	Issued sim.Time // submission time (for latency accounting)

	// exclClean marks a MESI Exclusive-clean fill of a read request. entry
	// is the line's directory entry, which is busy on this request's behalf
	// from service to commit: its owner, the core a forwarded probe goes
	// to, stands still meanwhile. Both are set when the request is serviced.
	exclClean bool
	entry     *dirEntry

	// The request's hops through a Directory, as event callbacks. They are
	// bound the first time the directory dir sees the request and survive
	// Reset, so a pooled request costs no closure per hop: a core has one
	// request in flight (Proposition 1), and each hop reads what it needs
	// from the request when it runs.
	dir      *Directory
	reachDir func() // the request has covered the fixed network distance
	arrive   func() // ... and the variable part: it enters the line's queue
	probe    func() // the forwarded probe reaches owner
	grant    func() // the grant reaches the requester
}

// Reset readies a request for a new transaction. Everything a transaction
// sets is cleared; the hop callbacks stay bound, which is why a pooled
// request is reset and not overwritten with a literal.
func (r *Request) Reset(core int, line mem.Line, excl, lease bool) {
	r.Core, r.Line, r.Excl, r.Lease = core, line, excl, lease
	r.Txn, r.Issued, r.exclClean, r.entry = 0, 0, false, nil
}

// bind makes d the directory whose hops the request's callbacks run.
func (r *Request) bind(d *Directory) {
	r.dir = d
	r.reachDir = func() { d.reachDir(r) }
	r.arrive = func() { d.arrive(r) }
	r.probe = func() { d.probeArrive(r.entry.owner, r) }
	r.grant = func() { d.deliverGrant(r) }
}

type dirState uint8

const (
	dirI dirState = iota
	dirS
	dirM
)

type dirEntry struct {
	state   dirState
	owner   int
	sharers uint64 // bitset over cores; Directory supports at most 64 cores
	busy    bool
	queue   []*Request
	touched bool // line has been filled at least once (cold-miss tracking)

	// newState/newOwner/newSharers: the transition decided when the request
	// in service was taken off the queue, applied by commit when it
	// completes. busy spans exactly that interval, so one set per line is
	// enough, and the requester may reuse its Request as soon as the grant
	// is delivered. commit is the callback that applies it, bound once.
	newState   dirState
	newOwner   int
	newSharers uint64
	commit     func()
}

// Env is the per-core side of the protocol, implemented by the machine.
// All methods are called from engine-event context.
type Env interface {
	// DeliverProbe presents an ownership/read probe for req.Line to the
	// owning core. If the core holds an active lease on the line (or the
	// line is part of a MultiLease group being acquired), the env queues
	// the probe and returns true; it must later call Directory.ProbeDone
	// when the lease releases. Otherwise the env downgrades its L1 copy
	// (to S for a read probe, to I for an ownership probe) and returns
	// false.
	DeliverProbe(owner int, req *Request) (deferred bool)
	// Invalidate tells a sharer core to drop its Shared copy. Never
	// deferred: leased lines are always Modified (§8: "a core leasing a
	// line demands it in Exclusive state").
	Invalidate(core int, line mem.Line)
	// Complete delivers the grant to the requester: install the line in
	// st and resume the stalled core. Called at the completion time.
	Complete(req *Request, st cache.State)
	// CountMsg accounts n coherence messages of the given kind.
	CountMsg(kind MsgKind, n int)
	// CountL2 accounts one L2 data access; CountDRAM one DRAM access.
	CountL2()
	CountDRAM()
}

// Directory is the shared-L2 directory controller.
//
// The directory's own state (entries, queues, RNG) lives in the system
// domain; every mutation of it happens in sys-domain events. Core-side
// effects (probe delivery, invalidation, grant install) are scheduled as
// events on the owning core's domain, and every cross-domain message carries
// at least Timing.Net cycles of latency — the lookahead the machine declares
// to the engine, on which a core's run-ahead L1 hits rest.
type Directory struct {
	eng *sim.Engine
	env Env
	t   Timing

	// dom is the system domain (directory/L2/memory side); cores caches
	// per-core domain handles for scheduling core-side events.
	dom   *sim.Domain
	cores [64]*sim.Domain

	// MESI enables MESI-style Exclusive-clean fills (§8 "Other
	// Protocols"): a read fill with no other sharer is granted in
	// exclusive state, so the first subsequent write needs no upgrade
	// transaction. Lease semantics are unchanged — a lease always
	// demands exclusive state.
	MESI bool

	entries map[mem.Line]*dirEntry
	rng     sim.RNG

	// MaxQueue is the maximum per-line queue occupancy observed (§5
	// discusses leases potentially increasing directory queuing).
	MaxQueue int
	// DeferredProbes counts probes that were queued at a leased core.
	DeferredProbes uint64

	// Bus, when set, receives per-line coherence-message events
	// (telemetry.CatCoherence) and queue-pressure events
	// (telemetry.CatDirQueue). A nil bus costs one predictable branch
	// per message.
	Bus *telemetry.Bus

	// Faults, when set, injects protocol-legal perturbations: extra
	// per-hop message latency and pre-service directory stalls. Per-line
	// FIFO order is preserved — a stall delays when the head of a line's
	// queue enters service, never which request that is. A nil injector
	// is inert.
	Faults *faults.Injector
}

// NewDirectory builds a directory over the given engine and environment.
func NewDirectory(eng *sim.Engine, env Env, t Timing) *Directory {
	return &Directory{
		eng: eng, env: env, t: t,
		dom:     eng.Sys(),
		entries: make(map[mem.Line]*dirEntry),
		rng:     sim.NewRNG(0xD12EC7),
	}
}

// coreDom returns the scheduling domain of core c (the proc domains are
// keyed by core id, see Engine.Spawn).
func (d *Directory) coreDom(c int) *sim.Domain {
	if d.cores[c] == nil {
		d.cores[c] = d.eng.Domain(uint32(c))
	}
	return d.cores[c]
}

func (d *Directory) entry(l mem.Line) *dirEntry {
	e, ok := d.entries[l]
	if !ok {
		e = &dirEntry{}
		e.commit = func() { d.commit(l, e) }
		d.entries[l] = e
	}
	return e
}

// countMsg accounts n messages of one kind with the machine's counters
// and mirrors them, per line, onto the telemetry bus.
func (d *Directory) countMsg(l mem.Line, kind MsgKind, n int) {
	d.env.CountMsg(kind, n)
	d.Bus.Emit(telemetry.CatCoherence, -1, uint8(kind), l, uint64(n))
}

// txn emits one CatTxn span event for req. req.Txn == 0 (tracing disabled, or the request predates the subscriber)
// makes every site a single predictable branch.
func (d *Directory) txn(req *Request, core int, kind uint8, aux uint64) {
	if req.Txn != 0 {
		d.Bus.Emit2(telemetry.CatTxn, core, kind, req.Line, req.Txn, aux)
	}
}

// Submit issues a request from a core at the current time. The request
// message takes one network hop (plus jitter) to reach the directory,
// where it enters the line's FIFO queue.
//
// Submit runs in the requesting core's domain. The message is scheduled at
// the fixed +Net lower bound (the declared lookahead); jitter and fault
// delays are drawn at the directory in canonical arrival order.
func (d *Directory) Submit(req *Request) {
	if req.dir != d {
		req.bind(d)
	}
	src := d.coreDom(req.Core)
	req.Issued = src.Now()
	d.countMsg(req.Line, MsgRequest, 1)
	src.CrossAt(d.dom, src.Now()+d.t.Net, req.reachDir)
}

// jitter draws 0..NetJitter extra cycles from the directory's RNG.
func (d *Directory) jitter() sim.Time {
	if d.t.NetJitter == 0 {
		return 0
	}
	return d.rng.Uint64n(uint64(d.t.NetJitter) + 1)
}

// reachDir runs in the directory's domain when a request has covered the
// minimum network distance; it applies the variable part of the traversal
// (jitter, injected delay) before the request enters the line's queue.
func (d *Directory) reachDir(req *Request) {
	if extra := d.jitter() + d.Faults.MsgDelay(); extra > 0 {
		d.dom.After(extra, req.arrive)
		return
	}
	d.arrive(req)
}

func (d *Directory) arrive(req *Request) {
	e := d.entry(req.Line)
	e.queue = append(e.queue, req)
	occ := len(e.queue)
	if e.busy {
		occ++ // include the request currently in service
	}
	if occ > d.MaxQueue {
		d.MaxQueue = occ
	}
	d.Bus.Emit(telemetry.CatDirQueue, req.Core, 0, req.Line, uint64(occ))
	d.txn(req, req.Core, telemetry.TxnArrive, uint64(occ))
	if !e.busy {
		d.serviceMaybeStalled(req.Line)
	}
}

// serviceMaybeStalled starts servicing a line's queue head, optionally
// after an injected directory stall. The stall delays only *when* the head
// enters service; service itself re-checks the busy bit, so a racing
// second schedule is harmless and per-line FIFO order is preserved.
func (d *Directory) serviceMaybeStalled(l mem.Line) {
	if st := d.Faults.DirStall(); st > 0 {
		d.dom.After(st, func() { d.service(l) })
		return
	}
	d.service(l)
}

// service begins processing the head of the line's queue. Runs in engine
// context at the directory.
func (d *Directory) service(l mem.Line) {
	e := d.entry(l)
	if e.busy || len(e.queue) == 0 {
		return
	}
	// Pop by shifting down: re-slicing from [1:] would give the capacity
	// away, and the next arrival on the line would allocate again.
	req := e.queue[0]
	n := copy(e.queue, e.queue[1:])
	e.queue[n] = nil
	e.queue = e.queue[:n]
	e.busy = true
	req.entry = e

	switch {
	case e.state == dirM && e.owner != req.Core:
		// Forward a probe to the owner; the lease mechanism may defer it
		// there. Directory tag lookup, then one hop to the owner.
		if req.Excl {
			e.newState, e.newOwner = dirM, req.Core
		} else {
			e.newState, e.newOwner, e.newSharers = dirS, 0, bit(e.owner)|bit(req.Core)
		}
		d.txn(req, req.Core, telemetry.TxnService, 0)
		d.countMsg(l, MsgForward, 1)
		d.dom.CrossAt(d.coreDom(e.owner), d.dom.Now()+d.t.L2Tag+d.t.Net+d.Faults.MsgDelay(), req.probe)

	case e.state == dirS && req.Excl:
		// Invalidate all other sharers, then grant Modified.
		e.newState, e.newOwner = dirM, req.Core
		others := e.sharers &^ bit(req.Core)
		k := countBits(others)
		dataReady := d.t.L2Tag + d.t.L2Data
		d.txn(req, req.Core, telemetry.TxnService, uint64(dataReady))
		if k > 0 {
			d.countMsg(l, MsgInval, k)
			d.countMsg(l, MsgAck, k)
			for c := 0; c < 64; c++ {
				if others&bit(c) != 0 {
					c := c
					d.dom.CrossAt(d.coreDom(c), d.dom.Now()+d.t.L2Tag+d.t.Net,
						func() { d.env.Invalidate(c, l) })
				}
			}
			acksDone := d.t.L2Tag + d.t.Net + d.t.Inval + d.t.Net
			if acksDone > dataReady {
				dataReady = acksDone
			}
		}
		if extra := dataReady - (d.t.L2Tag + d.t.L2Data); extra > 0 {
			d.txn(req, req.Core, telemetry.TxnInval, uint64(extra))
		}
		d.env.CountL2()
		d.countMsg(l, MsgReply, 1)
		d.scheduleComplete(d.dom, d.dom.Now()+dataReady+d.t.Net+d.Faults.MsgDelay(), req)

	default:
		// Uncached fill, a read of a Shared line, or a request by the
		// recorded owner itself (possible after an eviction writeback
		// raced this request): serve from L2/DRAM.
		lat := d.t.L2Tag + d.t.L2Data
		d.env.CountL2()
		if !e.touched {
			e.touched = true
			lat += d.t.DRAM
			d.env.CountDRAM()
		}
		d.txn(req, req.Core, telemetry.TxnService, uint64(lat))
		switch {
		case req.Excl:
			e.newState, e.newOwner = dirM, req.Core
		case d.MESI && e.state == dirI:
			// Sole reader: grant Exclusive (MESI E). The requester may
			// silently upgrade to Modified on its first write.
			e.newState, e.newOwner = dirM, req.Core
			req.exclClean = true
		default:
			e.newState, e.newOwner, e.newSharers = dirS, 0, e.sharers|bit(req.Core)
		}
		d.countMsg(l, MsgReply, 1)
		d.scheduleComplete(d.dom, d.dom.Now()+lat+d.t.Net+d.Faults.MsgDelay(), req)
	}
}

// probeArrive runs in the owning core's domain when a forwarded probe
// reaches it.
func (d *Directory) probeArrive(owner int, req *Request) {
	d.txn(req, owner, telemetry.TxnProbe, 0)
	if d.env.DeliverProbe(owner, req) {
		d.DeferredProbes++
		d.txn(req, owner, telemetry.TxnDefer, 0)
		return // env will call ProbeDone on lease release/expiry
	}
	d.ownerDowngraded(owner, req)
}

// ProbeDone resumes a deferred probe: the machine calls it from the owning
// core's context (after downgrading its L1 copy) when the lease on
// req.Line is released, voluntarily or involuntarily.
func (d *Directory) ProbeDone(owner int, req *Request) { d.ownerDowngraded(owner, req) }

// ownerDowngraded runs in the (former) owner's domain: the owner sends the
// data directly to the requester and an ownership-transfer ack to the
// directory.
func (d *Directory) ownerDowngraded(owner int, req *Request) {
	src := d.coreDom(owner)
	d.txn(req, req.Core, telemetry.TxnProbeDone, 0)
	d.countMsg(req.Line, MsgReply, 1)
	d.countMsg(req.Line, MsgAck, 1)
	d.scheduleComplete(src, src.Now()+d.t.Inval+d.t.Net+d.Faults.MsgDelay(), req)
}

// scheduleComplete schedules the two halves of a transaction's completion
// from domain src at time t: the grant delivery to the requesting core, and
// the directory's state commit. The grant is a core-domain event; the commit
// is a sys-domain event that reads the decided transition from the line's
// entry (it never reads req, so the requester may immediately reuse the
// Request object). Both land at the same cycle; the event key orders the
// core delivery before the directory commit, matching the sequential
// protocol's observable order.
func (d *Directory) scheduleComplete(src *sim.Domain, t sim.Time, req *Request) {
	src.CrossAt(d.coreDom(req.Core), t, req.grant)
	src.CrossAt(d.dom, t, req.entry.commit)
}

// deliverGrant runs in the requesting core's domain, which has been blocked
// since Submit: req is as the directory left it at service time.
func (d *Directory) deliverGrant(req *Request) {
	st := cache.Shared
	if req.Excl || req.exclClean {
		st = cache.Modified
	}
	d.txn(req, req.Core, telemetry.TxnComplete, 0)
	d.env.Complete(req, st)
}

// commit applies the directory transition decided at service time and
// starts servicing the next queued request for the line. Runs in the
// directory's domain.
func (d *Directory) commit(l mem.Line, e *dirEntry) {
	e.state, e.owner, e.sharers = e.newState, e.newOwner, e.newSharers
	if e.state == dirM {
		e.sharers = bit(e.owner)
	}
	e.busy = false
	if len(e.queue) > 0 {
		d.serviceMaybeStalled(l)
	}
}

// Writeback records a dirty eviction by core on line l. The notice takes
// one network hop to reach the directory; a transaction that races it sees
// the stale owner and resolves via the probe path (the staleness guard
// below drops the notice if ownership has already moved on).
func (d *Directory) Writeback(core int, l mem.Line) {
	src := d.coreDom(core)
	d.countMsg(l, MsgWriteback, 1)
	src.CrossAt(d.dom, src.Now()+d.t.Net, func() {
		e := d.entry(l)
		if e.state == dirM && e.owner == core {
			e.state = dirI
			e.sharers = 0
		}
	})
}

// SharerDrop records a silent Shared eviction (no message in MSI; the
// directory's sharer list simply goes stale, and a later invalidation to a
// non-holder is absorbed by the core). The bookkeeping update still rides
// a one-hop notification so the directory map is only touched from its own
// domain.
func (d *Directory) SharerDrop(core int, l mem.Line) {
	src := d.coreDom(core)
	src.CrossAt(d.dom, src.Now()+d.t.Net, func() {
		if e, ok := d.entries[l]; ok {
			e.sharers &^= bit(core)
		}
	})
}

// State reports the directory's view of a line (for tests/diagnostics):
// "I", "S", or "M", the owner (valid for M), and the sharer bitset.
func (d *Directory) State(l mem.Line) (state string, owner int, sharers uint64) {
	e, ok := d.entries[l]
	if !ok {
		return "I", 0, 0
	}
	switch e.state {
	case dirS:
		return "S", 0, e.sharers
	case dirM:
		return "M", e.owner, e.sharers
	}
	return "I", 0, 0
}

// LineInfo reports the full directory view of one line, including whether
// it is mid-transaction (busy, or with queued requests). Runtime checkers
// use it to validate a single line per event instead of scanning the
// whole directory.
func (d *Directory) LineInfo(l mem.Line) (state string, owner int, sharers uint64, busy bool) {
	e, ok := d.entries[l]
	if !ok {
		return "I", 0, 0, false
	}
	st := "I"
	switch e.state {
	case dirS:
		st = "S"
	case dirM:
		st = "M"
	}
	return st, e.owner, e.sharers, e.busy || len(e.queue) > 0
}

// ForEachLine visits every line the directory has ever tracked, reporting
// its committed state. busy lines are mid-transaction; checkers should
// skip them.
func (d *Directory) ForEachLine(fn func(l mem.Line, state string, owner int, sharers uint64, busy bool)) {
	for l, e := range d.entries {
		st := "I"
		switch e.state {
		case dirS:
			st = "S"
		case dirM:
			st = "M"
		}
		fn(l, st, e.owner, e.sharers, e.busy || len(e.queue) > 0)
	}
}

// QueueLen returns the current queue length for a line (tests/diagnostics).
func (d *Directory) QueueLen(l mem.Line) int {
	if e, ok := d.entries[l]; ok {
		n := len(e.queue)
		if e.busy {
			n++
		}
		return n
	}
	return 0
}

func bit(c int) uint64 {
	if c < 0 || c >= 64 {
		panic("coherence: core index out of range (directory supports <= 64 cores)")
	}
	return 1 << uint(c)
}

func countBits(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
