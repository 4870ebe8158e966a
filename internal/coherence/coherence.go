// Package coherence implements a transaction-level directory-based cache
// coherence protocol with per-line FIFO request queues, the substrate the
// paper's Lease/Release mechanism plugs into.
//
// The directory matches the paper's setup (§7): "The directory structure in
// Graphite implements a separate request queue per cache line" — this is
// the paper's Assumption 1, on which the MultiLease deadlock-freedom proof
// (Proposition 3) rests. One request per line is in service at a time
// (Proposition 1: at most a single outstanding request can be queued at a
// core); all others wait in the line's FIFO queue at the directory.
//
// Directory is the transport: every message, hop, queue and timer of a
// transaction. What a protocol is, beyond that, is a line policy (Policy,
// LinePolicy): the state it keeps per line and what it decides when a
// request reaches the head of the line's queue. MSI (msi.go) is the policy
// the paper evaluates on; package tardis holds a second one. The per-core
// side (L1 state changes, lease deferral decisions, waking the requesting
// core) is delegated to an Env implemented by the machine package, keeping
// the directory independently testable.
package coherence

import (
	"encoding/json"
	"fmt"
	"math/bits"

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

// MsgCounts counts messages per kind, indexed by MsgKind. In JSON it is an
// object keyed by kind name, every kind present, in name order.
type MsgCounts [NumMsgKinds]uint64

// MarshalJSON writes the counts as an object keyed by MsgKind.String.
func (c MsgCounts) MarshalJSON() ([]byte, error) {
	byName := make(map[string]uint64, len(c))
	for k, n := range c {
		byName[MsgKind(k).String()] = n
	}
	return json.Marshal(byName) // sorts the keys
}

// UnmarshalJSON reads what MarshalJSON writes; a kind it does not name
// counts zero, and a name that is no kind is ignored.
func (c *MsgCounts) UnmarshalJSON(b []byte) error {
	var byName map[string]uint64
	if err := json.Unmarshal(b, &byName); err != nil {
		return err
	}
	for k := range c {
		c[k] = byName[MsgKind(k).String()]
	}
	return nil
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
	// otherwise. The directory writes each step's stamp into Stamps, which
	// minting resets, and when Txn is set the grant's delivery emits the
	// transaction's one CatTxn event with both.
	Txn    uint64
	Stamps telemetry.TxnStamps

	// What service decided for the request (Decision): exclClean marks a
	// read granted in exclusive state and owner is the core a forwarded
	// probe goes to. line is the line's record, looked up at Submit, which
	// is busy on this request's behalf from service to commit.
	exclClean bool
	owner     int
	line      *Line
	// next is the request behind this one in its line's FIFO. A core has
	// one request in flight (Proposition 1), so a request waits in at most
	// one queue; next is nil whenever it is not queued.
	next *Request

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
	r.Txn, r.exclClean, r.owner, r.line = 0, false, 0, nil
}

// bind makes d the directory whose hops the request's callbacks run.
func (r *Request) bind(d *Directory) {
	r.dir = d
	r.reachDir = func() { d.reachDir(r) }
	r.arrive = func() { d.arrive(r) }
	r.probe = func() { d.probeArrive(r.owner, r) }
	r.grant = func() { d.deliverGrant(r) }
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

// Directory is the shared-L2 directory controller: the transport both
// protocols ride. Per line it keeps the FIFO of waiting requests and serves
// one at a time; the line's policy decides how (LinePolicy.Serve), and the
// directory carries the decision out — the probe hop to an owner and the
// wait for its ProbeDone, the invalidation fan-out, the L2 or DRAM access,
// the grant to the requester and, at the same cycle, the commit.
//
// The directory's own state (line records, queues, RNG) lives in the system
// domain; every mutation of it happens in sys-domain events. Core-side
// effects (probe delivery, invalidation, grant install) are scheduled as
// events on the owning core's domain, and every cross-domain message carries
// at least Timing.Net cycles of latency — the lookahead the machine declares
// to the engine, on which a core's run-ahead L1 hits rest.
type Directory struct {
	// Policy is the protocol: its name, its line records and its lease
	// hooks are the directory's.
	Policy
	// privacy is the policy's Privacy, nil if it keeps every copy private.
	privacy Privacy

	eng *sim.Engine
	env Env
	t   Timing

	// dom is the system domain (directory/L2/memory side); cores caches
	// per-core domain handles for scheduling core-side events.
	dom   *sim.Domain
	cores [64]*sim.Domain

	// MESI is the MSI policy's option of MESI-style Exclusive-clean fills
	// (§8 "Other Protocols"): a read fill with no other sharer is granted
	// in exclusive state, so the first subsequent write needs no upgrade
	// transaction. Lease semantics are unchanged — a lease always demands
	// exclusive state. Tardis has no such state and ignores it.
	MESI bool

	lines mem.Index[*Line]
	rng   sim.RNG

	// notices is the free list of pooled notice records.
	notices *notice
	// blank is a line record in the initial state, which every line's is:
	// VerifyLine checks a line nobody has asked for yet against it.
	blank *Line

	// Stats are the counters of both halves (ProtoStats).
	Stats ProtoStats

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

// New builds a directory that serves its lines by policy p. jitterSeed seeds
// the stream Timing.NetJitter is drawn from, one per protocol. p reaches the
// directory it serves (Now, Line, Stats) through the returned value.
func New(eng *sim.Engine, env Env, t Timing, p Policy, jitterSeed uint64) *Directory {
	d := &Directory{
		Policy: p, eng: eng, env: env, t: t,
		dom: eng.Sys(),
		rng: sim.NewRNG(jitterSeed),
	}
	d.privacy, _ = p.(Privacy)
	d.blank = p.NewLine(0)
	return d
}

// Now returns the current simulated time.
func (d *Directory) Now() sim.Time { return d.dom.Now() }

// Private is the policy's Privacy.Private. Under a policy that does not
// implement Privacy (MSI) every copy is private, and the answer costs one
// branch.
func (d *Directory) Private(core int, l mem.Line, write bool) bool {
	return d.privacy == nil || d.privacy.Private(core, l, write)
}

// CopiesPrivate reports whether the policy keeps every copy private (MSI):
// whether Private answers true for every copy a core's L1 holds.
func (d *Directory) CopiesPrivate() bool { return d.privacy == nil }

// coreDom returns the scheduling domain of core c (the proc domains are
// keyed by core id, see Engine.Spawn).
func (d *Directory) coreDom(c int) *sim.Domain {
	if d.cores[c] == nil {
		d.cores[c] = d.eng.Domain(uint32(c))
	}
	return d.cores[c]
}

// Line returns the record of line l, or nil if nobody has asked for it yet.
func (d *Directory) Line(l mem.Line) *Line {
	if p := d.lines.Find(l); p != nil {
		return *p
	}
	return nil
}

func (d *Directory) line(l mem.Line) *Line {
	p := d.lines.Slot(l)
	if *p == nil {
		*p = d.NewLine(l)
	}
	return *p
}

// countMsg accounts n messages of one kind on line l, whose record is ln,
// with the machine's counters and, while the directory has a bus, on ln's
// traffic and the bus.
func (d *Directory) countMsg(ln *Line, l mem.Line, kind MsgKind, n int) {
	d.env.CountMsg(kind, n)
	if d.Bus != nil {
		ln.msgs += uint64(n)
		if kind == MsgInval || kind == MsgForward {
			ln.invals += uint64(n)
		}
		d.Bus.Emit(telemetry.CatCoherence, -1, uint8(kind), l, uint64(n))
	}
}

// Submit issues a request from a core at the current time. The request
// message takes one network hop (plus jitter) to reach the directory,
// where it enters the line's FIFO queue. The line's record, made here if
// need be, travels with it.
//
// Submit runs in the requesting core's domain. The message is scheduled at
// the fixed +Net lower bound (the declared lookahead); jitter and fault
// delays are drawn at the directory in canonical arrival order.
func (d *Directory) Submit(req *Request) {
	if req.dir != d {
		req.bind(d)
	}
	req.line = d.line(req.Line)
	src := d.coreDom(req.Core)
	d.countMsg(req.line, req.Line, MsgRequest, 1)
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
	ln := req.line
	if ln.tail == nil {
		ln.head = req
	} else {
		ln.tail.next = req
	}
	ln.tail = req
	ln.waiting++
	occ := ln.waiting
	if ln.busy {
		occ++ // include the request currently in service
	}
	d.Stats.MaxQueue = max(d.Stats.MaxQueue, int(occ))
	if d.Bus != nil {
		ln.maxQueue = max(ln.maxQueue, uint32(occ))
		d.Bus.Emit(telemetry.CatDirQueue, req.Core, 0, req.Line, uint64(occ))
	}
	req.Stamps.Arrive = d.Now()
	if !ln.busy {
		d.serviceMaybeStalled(ln)
	}
}

// serviceMaybeStalled starts servicing a line's queue head, optionally
// after an injected directory stall. The stall delays only *when* the head
// enters service; service itself re-checks the busy bit, so a racing
// second schedule is harmless and per-line FIFO order is preserved.
func (d *Directory) serviceMaybeStalled(ln *Line) {
	if st := d.Faults.DirStall(); st > 0 {
		d.dom.After(st, d.notice(noticeService, 0, 0, ln))
		return
	}
	d.service(ln)
}

// service takes the head of the line's queue into service and carries out
// what the policy decides for it. Runs in engine context at the directory.
func (d *Directory) service(ln *Line) {
	req := ln.head
	if ln.busy || req == nil {
		return
	}
	ln.head, req.next = req.next, nil
	if ln.head == nil {
		ln.tail = nil
	}
	ln.waiting--
	ln.busy = true

	dec := ln.Policy.Serve(req)
	req.exclClean, req.owner = dec.ExclClean, dec.Owner
	l, now := req.Line, d.dom.Now()
	req.Stamps.Service = now
	if dec.Forward {
		// Directory tag lookup, then one hop to the owner; the lease
		// mechanism may defer the probe there.
		d.countMsg(ln, l, MsgForward, 1)
		d.dom.CrossAt(d.coreDom(dec.Owner), now+d.t.L2Tag+d.t.Net+d.Faults.MsgDelay(), req.probe)
		return
	}

	// The directory answers itself, after service cycles of L2 (and DRAM)
	// access and extra ones of what the span books as a phase of its own:
	// the wait for invalidation acks beyond the access, or a renewal's tag
	// lookup.
	var service, extra sim.Time
	if dec.TagOnly {
		extra = d.t.L2Tag
	} else {
		service = d.t.L2Tag + d.t.L2Data
		d.env.CountL2()
		if !ln.touched {
			ln.touched = true
			service += d.t.DRAM
			d.env.CountDRAM()
		}
	}
	if k := bits.OnesCount64(dec.Inval); k > 0 {
		d.countMsg(ln, l, MsgInval, k)
		d.countMsg(ln, l, MsgAck, k)
		for c := 0; c < 64; c++ {
			if dec.Inval&bit(c) != 0 {
				d.dom.CrossAt(d.coreDom(c), now+d.t.L2Tag+d.t.Net, d.notice(noticeInval, c, l, nil))
			}
		}
		if acksDone := d.t.L2Tag + d.t.Net + d.t.Inval + d.t.Net; acksDone > service {
			extra = acksDone - service
		}
	}
	req.Stamps.ServiceLat, req.Stamps.Extra, req.Stamps.Renewal = service, extra, dec.TagOnly
	d.countMsg(ln, l, MsgReply, 1)
	d.scheduleComplete(d.dom, now+service+extra+d.t.Net+d.Faults.MsgDelay(), req)
}

// probeArrive runs in the owning core's domain when a forwarded probe
// reaches it.
func (d *Directory) probeArrive(owner int, req *Request) {
	req.Stamps.Owner, req.Stamps.Probe = owner, d.Now()
	if d.env.DeliverProbe(owner, req) {
		d.Stats.DeferredProbes++
		req.Stamps.Deferred = true
		return // env will call ProbeDone on lease release/expiry
	}
	d.ProbeDone(owner, req)
}

// ProbeDone says that owner has downgraded its L1 copy for req's probe: at
// once, or — the machine's call, from the owning core's context — when the
// lease the probe was deferred behind is released, voluntarily or
// involuntarily. The owner sends the data directly to the requester and an
// ownership-transfer ack to the directory; its domain is the source of both
// messages — it keys their events and is what the lookahead check measures
// from.
func (d *Directory) ProbeDone(owner int, req *Request) {
	src := d.coreDom(owner)
	req.Stamps.ProbeDone = src.Now()
	d.countMsg(req.line, req.Line, MsgReply, 1)
	d.countMsg(req.line, req.Line, MsgAck, 1)
	d.scheduleComplete(src, src.Now()+d.t.Inval+d.t.Net+d.Faults.MsgDelay(), req)
}

// scheduleComplete schedules the two halves of a transaction's completion
// from domain src at time t: the grant delivery to the requesting core, and
// the directory's state commit. The grant is a core-domain event; the commit
// is a sys-domain notice that applies the transition the policy recorded in
// the line's record (it never reads req, so the requester may immediately
// reuse or overwrite the Request). Both land at the same cycle; the event
// key orders the core delivery before the directory commit, matching the
// sequential protocol's observable order.
func (d *Directory) scheduleComplete(src *sim.Domain, t sim.Time, req *Request) {
	src.CrossAt(d.coreDom(req.Core), t, req.grant)
	src.CrossAt(d.dom, t, d.notice(noticeCommit, 0, req.Line, req.line))
}

// deliverGrant runs in the requesting core's domain, which has been blocked
// since Submit: req is as the directory left it at service time. A traced
// transaction's one CatTxn event goes out here, with its stamps.
func (d *Directory) deliverGrant(req *Request) {
	st := cache.Shared
	if req.Excl || req.exclClean {
		st = cache.Modified
	}
	if req.Txn != 0 {
		d.Bus.EmitTxn(req.Core, req.Line, req.Txn, &req.Stamps)
	}
	d.env.Complete(req, st)
}

// commit has the policy apply the transition decided at service time, sends
// a lapse notice to each reader the transition reserved a copy for, and
// starts servicing the next queued request for line l. Runs in the
// directory's domain.
func (d *Directory) commit(l mem.Line, ln *Line) {
	for readers, end := ln.Policy.Commit(); readers != 0; readers &= readers - 1 {
		c := bits.TrailingZeros64(readers)
		d.dom.CrossAt(d.coreDom(c), end, d.notice(noticeLapse, c, l, nil))
	}
	ln.busy = false
	if ln.head != nil {
		d.serviceMaybeStalled(ln)
	}
}

// Writeback records a dirty eviction by core on line l. The notice takes
// one network hop to reach the directory; a transaction that races it sees
// the stale owner and resolves via the probe path (LinePolicy.Evict drops
// the notice if ownership has already moved on).
func (d *Directory) Writeback(core int, l mem.Line) {
	d.countMsg(d.evicted(l), l, MsgWriteback, 1)
	d.notify(noticeWriteback, core, l)
}

// SharerDrop records a silent Shared eviction (no message; under MSI the
// directory's sharer list simply goes stale, and a later invalidation to a
// non-holder is absorbed by the core). The bookkeeping update still rides
// a one-hop notification so the line's protocol state is only touched from
// the directory's domain; evicted counts host-side traffic only.
func (d *Directory) SharerDrop(core int, l mem.Line) {
	d.evicted(l)
	d.notify(noticeDrop, core, l)
}

// evicted counts an L1 eviction of l, reported in the step the L1 emits
// CatCache, on l's record while the directory has a bus, and returns it.
func (d *Directory) evicted(l mem.Line) *Line {
	if d.Bus == nil {
		return nil
	}
	ln := d.line(l)
	ln.evictions++
	return ln
}

func (d *Directory) notify(kind noticeKind, core int, l mem.Line) {
	src := d.coreDom(core)
	src.CrossAt(d.dom, src.Now()+d.t.Net, d.notice(kind, core, l, nil))
}

type noticeKind uint8

const (
	noticeInval     noticeKind = iota // the directory tells a sharer to drop its copy
	noticeWriteback                   // a core tells the directory it evicted a Modified copy
	noticeDrop                        // ... or a Shared one
	noticeLapse                       // a reader's read reservation ends
	noticeCommit                      // a transaction's transition is applied to its line
	noticeService                     // a stalled line's queue head enters service
)

// notice is a one-way message that no request carries: about one (core,
// line) pair — an invalidation, an eviction notice, or the lapse of a read
// reservation — or the directory's own step on one line's record ln, a
// commit or a stalled service. Like a Request's hops, its callback is bound
// once; the records are pooled on the directory, and the callback returns its
// record to the pool before it acts, so a notice allocates nothing once the
// pool is warm.
type notice struct {
	kind noticeKind
	core int
	line mem.Line
	ln   *Line
	live bool // scheduled and not yet run (checked by the -race poison mode)
	next *notice
	run  func()
}

// notice takes a record from the pool and returns its callback.
func (d *Directory) notice(kind noticeKind, core int, l mem.Line, ln *Line) func() {
	n := d.notices
	if n == nil {
		n = new(notice)
		n.run = func() { d.deliver(n) }
	} else {
		d.notices = n.next
	}
	n.kind, n.core, n.line, n.ln = kind, core, l, ln
	poisonTake(n)
	return n.run
}

// deliver frees n, then acts on what it said.
func (d *Directory) deliver(n *notice) {
	kind, core, l, ln := n.kind, n.core, n.line, n.ln
	poisonFree(n)
	n.next, d.notices = d.notices, n
	switch kind {
	case noticeCommit:
		d.commit(l, ln)
	case noticeService:
		d.service(ln)
	case noticeInval:
		d.env.Invalidate(core, l)
	case noticeLapse:
		if ln := d.Line(l); ln != nil && ln.Policy.Lapsed(core) {
			d.env.Invalidate(core, l)
		}
	default:
		if ln := d.Line(l); ln != nil {
			ln.Policy.Evict(core, kind == noticeWriteback)
		}
	}
}

func bit(c int) uint64 {
	if c < 0 || c >= 64 {
		panic("coherence: core index out of range (directory supports <= 64 cores)")
	}
	return 1 << uint(c)
}
