// Package tardis implements Tardis-style logical-timestamp cache
// coherence ("Tardis 2.0: Optimized Time Traveling Coherence for Relaxed
// Consistency Models") as a second coherence.Protocol backend.
//
// Instead of tracking a sharer list and fanning out invalidations, the
// timestamp manager keeps per-line write/read timestamps (wts, rts) in the
// cycle domain:
//
//   - A read grant is a bounded reservation: the requester may keep its
//     Shared copy until an absolute expiry cycle, rts is extended to cover
//     it (rts = max(rts, grant+ReadLease)), and the copy self-invalidates
//     when the reservation elapses — no message, no directory transaction.
//   - A write to a line with unexpired reservations does not invalidate
//     them: its logical commit time jumps past rts (wts = rts+1) and the
//     stale Shared copies expire on their own. This is the fan-out MSI
//     pays and Tardis does not (counted as RTSJumps).
//   - A re-read of a line whose wts is unchanged since the reader's last
//     reservation is a tag-only renewal: the manager only extends rts, at
//     L2-tag latency, with no data transfer (counted as Renewals).
//   - Per-core program timestamps (pts) advance to the wts of every line
//     read or written, giving each core a logical position in the
//     timestamp order (exposed for dumps; physical timing is unaffected).
//
// Ownership transfer still requires a probe to the current owner —
// exactly MSI's forward path — which is where the paper's lease deferral
// plugs in unchanged: a leased owner queues the probe and the directory
// waits for ProbeDone. Leases also map natively onto the timestamp model:
// a started lease extends the owned line's rts by the lease duration
// (bounded by MAX_LEASE_TIME upstream) and a release truncates the
// extension back to what outstanding read reservations still need.
//
// Data always comes from the shared backing store, so operation results
// are exact even while stale-timing Shared copies coexist with a new
// owner; wts/rts/pts govern timing and are validated by VerifyLine
// (timestamp-order invariants), never consulted for values.
//
// The MESI Exclusive-clean option does not apply and cfg.MESI is ignored.
package tardis

import (
	"fmt"

	"leaserelease/internal/cache"
	"leaserelease/internal/coherence"
	"leaserelease/internal/faults"
	"leaserelease/internal/mem"
	"leaserelease/internal/sim"
	"leaserelease/internal/telemetry"
)

// Config tunes the protocol. The zero value picks defaults.
type Config struct {
	// ReadLease is the physical-cycle length of one read reservation: how
	// long a granted Shared copy stays readable before self-invalidating.
	// Longer reservations amortize more reads per fetch but delay a
	// writer's logical commit time further past rts. Default 2000.
	ReadLease uint64
}

func (c Config) withDefaults() Config {
	if c.ReadLease == 0 {
		c.ReadLease = 2000
	}
	return c
}

// reservation is one core's read grant on a line. The record outlives the
// reservation itself (end in the past) so a later re-read can check
// whether the line was written since (wts match = tag-only renewal).
type reservation struct {
	end uint64 // absolute cycle the Shared copy self-invalidates
	gen uint64 // grant generation; stale self-invalidation timers no-op
	wts uint64 // line wts at grant time (renewal check)
}

// entry is the timestamp manager's per-line state.
type entry struct {
	wts     uint64 // logical write timestamp (cycle domain)
	rts     uint64 // logical read timestamp: reads are valid through rts
	owned   bool
	owner   int
	busy    bool
	queue   []*coherence.Request
	touched bool // filled at least once (cold-miss tracking)
	res     map[int]*reservation

	// Pending transition for the request in service (at most one per
	// line), committed on complete.
	pOwned bool
	pRead  bool // grant a read reservation to the requester
	pRenew bool // served as a tag-only renewal
	pPrev  int  // previous owner to re-reserve on a read-forward, or -1
}

// Protocol is the Tardis timestamp manager (the directory-side agent).
// It implements coherence.Protocol against the same Env as the MSI
// directory, so the machine's core side is shared between backends.
type Protocol struct {
	eng *sim.Engine
	env coherence.Env
	t   coherence.Timing
	cfg Config

	entries map[mem.Line]*entry
	rng     sim.RNG
	pts     []uint64 // per-core program timestamps
	genSeq  uint64

	// MaxQueue is the peak per-line queue occupancy observed; the other
	// counters are described on coherence.ProtoStats.
	MaxQueue       int
	DeferredProbes uint64
	Renewals       uint64
	RTSJumps       uint64

	// Bus and Faults mirror Directory's fields: nil values are inert.
	Bus    *telemetry.Bus
	Faults *faults.Injector
}

// New builds a Tardis timestamp manager over the given engine and
// environment for ncores cores.
func New(eng *sim.Engine, env coherence.Env, t coherence.Timing, cfg Config, ncores int) *Protocol {
	return &Protocol{
		eng: eng, env: env, t: t, cfg: cfg.withDefaults(),
		entries: make(map[mem.Line]*entry),
		rng:     sim.NewRNG(0x7A2D15), // independent of the MSI directory's stream
		pts:     make([]uint64, ncores),
	}
}

// Name returns coherence.ProtocolTardis.
func (p *Protocol) Name() string { return coherence.ProtocolTardis }

// SetBus wires the telemetry bus.
func (p *Protocol) SetBus(b *telemetry.Bus) { p.Bus = b }

// ProtoStats snapshots the manager's internal counters.
func (p *Protocol) ProtoStats() coherence.ProtoStats {
	return coherence.ProtoStats{
		MaxQueue: p.MaxQueue, DeferredProbes: p.DeferredProbes,
		Renewals: p.Renewals, RTSJumps: p.RTSJumps,
	}
}

func (p *Protocol) entry(l mem.Line) *entry {
	e, ok := p.entries[l]
	if !ok {
		e = &entry{res: make(map[int]*reservation), pPrev: -1}
		p.entries[l] = e
	}
	return e
}

func (p *Protocol) countMsg(l mem.Line, kind coherence.MsgKind, n int) {
	p.env.CountMsg(kind, n)
	p.Bus.Emit(telemetry.CatCoherence, -1, uint8(kind), l, uint64(n))
}

func (p *Protocol) txn(req *coherence.Request, core int, kind uint8, aux uint64) {
	if req.Txn != 0 {
		p.Bus.Emit2(telemetry.CatTxn, core, kind, req.Line, req.Txn, aux)
	}
}

// jitter draws 0..NetJitter extra cycles from the manager's own RNG.
func (p *Protocol) jitter() sim.Time {
	if p.t.NetJitter == 0 {
		return 0
	}
	return p.rng.Uint64n(uint64(p.t.NetJitter) + 1)
}

// Submit issues a request from a core at the current time; one network hop
// (plus jitter) to the timestamp manager, then the line's FIFO queue.
func (p *Protocol) Submit(req *coherence.Request) {
	req.Issued = p.eng.Now()
	p.countMsg(req.Line, coherence.MsgRequest, 1)
	p.eng.After(p.t.Net+p.jitter()+p.Faults.MsgDelay(), func() { p.arrive(req) })
}

func (p *Protocol) arrive(req *coherence.Request) {
	e := p.entry(req.Line)
	e.queue = append(e.queue, req)
	occ := len(e.queue)
	if e.busy {
		occ++
	}
	if occ > p.MaxQueue {
		p.MaxQueue = occ
	}
	p.Bus.Emit(telemetry.CatDirQueue, req.Core, 0, req.Line, uint64(occ))
	p.txn(req, req.Core, telemetry.TxnArrive, uint64(occ))
	if !e.busy {
		p.serviceMaybeStalled(req.Line)
	}
}

func (p *Protocol) serviceMaybeStalled(l mem.Line) {
	if st := p.Faults.DirStall(); st > 0 {
		p.eng.After(st, func() { p.service(l) })
		return
	}
	p.service(l)
}

// canRenew reports whether core's read can be served as a tag-only
// renewal: it held a reservation on the line and the line's wts is
// unchanged since, so only rts needs extending — the data the core last
// saw is still current.
func (e *entry) canRenew(core int) bool {
	rec, ok := e.res[core]
	return ok && rec.wts == e.wts
}

// service begins processing the head of the line's queue.
func (p *Protocol) service(l mem.Line) {
	e := p.entry(l)
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
	e.pRenew, e.pPrev = false, -1

	switch {
	case e.owned && e.owner != req.Core:
		// Ownership transfer needs the owner's copy back: forward a probe,
		// exactly as MSI does — this is where lease deferral applies.
		if req.Excl {
			e.pOwned, e.pRead = true, false
		} else {
			e.pOwned, e.pRead = false, true
			e.pPrev = e.owner // the downgraded owner keeps a readable copy
		}
		p.txn(req, req.Core, telemetry.TxnService, 0)
		p.countMsg(l, coherence.MsgForward, 1)
		owner := e.owner
		p.eng.After(p.t.L2Tag+p.t.Net+p.Faults.MsgDelay(), func() { p.probeArrive(owner, req) })

	case !req.Excl && e.touched && e.canRenew(req.Core):
		// Tag-only renewal: wts is unchanged since the requester's last
		// reservation, so the manager only extends rts — no data access,
		// no transfer beyond the grant message.
		e.pOwned, e.pRead, e.pRenew = false, true, true
		lat := p.t.L2Tag
		p.Renewals++
		p.txn(req, req.Core, telemetry.TxnService, 0)
		if req.Txn != 0 {
			p.Bus.Emit2(telemetry.CatTxn, req.Core, telemetry.TxnRenew, l, req.Txn, uint64(lat))
		}
		p.countMsg(l, coherence.MsgReply, 1)
		p.eng.After(lat+p.t.Net+p.Faults.MsgDelay(), func() { p.complete(req) })

	default:
		// Fill from L2/DRAM (or a write to an unowned line). Note the
		// write case sends no invalidations even with unexpired read
		// reservations outstanding: the commit jumps past rts instead.
		lat := p.t.L2Tag + p.t.L2Data
		p.env.CountL2()
		if !e.touched {
			e.touched = true
			lat += p.t.DRAM
			p.env.CountDRAM()
		}
		if req.Excl {
			e.pOwned, e.pRead = true, false
		} else {
			e.pOwned, e.pRead = false, true
		}
		p.txn(req, req.Core, telemetry.TxnService, uint64(lat))
		p.countMsg(l, coherence.MsgReply, 1)
		p.eng.After(lat+p.t.Net+p.Faults.MsgDelay(), func() { p.complete(req) })
	}
}

// probeArrive runs when a forwarded probe reaches the owning core.
func (p *Protocol) probeArrive(owner int, req *coherence.Request) {
	p.txn(req, owner, telemetry.TxnProbe, 0)
	if p.env.DeliverProbe(owner, req) {
		p.DeferredProbes++
		p.txn(req, owner, telemetry.TxnDefer, 0)
		return // env calls ProbeDone on lease release/expiry
	}
	p.ownerDowngraded(req)
}

// ProbeDone resumes a deferred probe after the lease on req.Line released.
// owner (the releasing core) is unused here: Tardis schedules every event on
// the system domain, which is why it holds no lookahead certificate.
func (p *Protocol) ProbeDone(owner int, req *coherence.Request) { p.ownerDowngraded(req) }

func (p *Protocol) ownerDowngraded(req *coherence.Request) {
	p.txn(req, req.Core, telemetry.TxnProbeDone, 0)
	p.countMsg(req.Line, coherence.MsgReply, 1)
	p.countMsg(req.Line, coherence.MsgAck, 1)
	p.eng.After(p.t.Inval+p.t.Net+p.Faults.MsgDelay(), func() { p.complete(req) })
}

// reserve grants core a read reservation on l until end: the record feeds
// renewal checks and VerifyLine, and the timer self-invalidates the copy
// when the reservation elapses — costing no coherence messages.
func (p *Protocol) reserve(e *entry, core int, l mem.Line, end uint64) {
	p.genSeq++
	gen := p.genSeq
	e.res[core] = &reservation{end: end, gen: gen, wts: e.wts}
	p.eng.At(end, func() {
		rec, ok := e.res[core]
		if !ok || rec.gen != gen {
			return // re-granted, evicted, or promoted to owner meanwhile
		}
		p.env.Invalidate(core, l)
	})
}

// complete commits the pending transition, installs the line at the
// requester, and starts servicing the next queued request.
func (p *Protocol) complete(req *coherence.Request) {
	e := p.entry(req.Line)
	now := p.eng.Now()
	st := cache.Shared
	if e.pOwned {
		st = cache.Modified
		wts := now
		if e.rts >= wts {
			// Unexpired read reservations (or a logical clock already
			// ahead): the write's logical commit time jumps past rts
			// rather than invalidating the readers.
			wts = e.rts + 1
			p.RTSJumps++
		}
		e.wts, e.rts = wts, wts
		e.owned, e.owner = true, req.Core
		delete(e.res, req.Core) // the owner needs no read reservation
		p.bumpPts(req.Core, wts)
	} else {
		end := now + p.cfg.ReadLease
		if e.rts < end {
			e.rts = end
		}
		p.reserve(e, req.Core, req.Line, end)
		if e.pPrev >= 0 && e.pPrev != req.Core {
			// A read-forward downgraded the owner to Shared: its copy
			// stays readable under the same reservation bound.
			p.reserve(e, e.pPrev, req.Line, end)
		}
		e.owned = false
		p.bumpPts(req.Core, e.wts)
	}
	e.busy = false
	e.pPrev = -1
	p.txn(req, req.Core, telemetry.TxnComplete, 0)
	p.env.Complete(req, st)
	if len(e.queue) > 0 {
		p.serviceMaybeStalled(req.Line)
	}
}

func (p *Protocol) bumpPts(core int, ts uint64) {
	if core >= 0 && core < len(p.pts) && p.pts[core] < ts {
		p.pts[core] = ts
	}
}

// Writeback records a dirty eviction by core on line l: ownership is
// surrendered; timestamps persist (they describe the logical past).
func (p *Protocol) Writeback(core int, l mem.Line) {
	p.countMsg(l, coherence.MsgWriteback, 1)
	if e, ok := p.entries[l]; ok && e.owned && e.owner == core {
		e.owned = false
	}
}

// SharerDrop records a silent Shared eviction: the reservation record is
// dropped so the self-invalidation timer no-ops and a later re-read takes
// a full fill (the data is gone from the L1 either way).
func (p *Protocol) SharerDrop(core int, l mem.Line) {
	if e, ok := p.entries[l]; ok {
		delete(e.res, core)
	}
}

// LeaseStarted maps a started lease onto the timestamp model: the lease is
// a bounded rts reservation on the owned line — rts extends to cover the
// lease window (duration is clamped to MAX_LEASE_TIME upstream), declaring
// the owner's copy logically valid through the lease deadline.
func (p *Protocol) LeaseStarted(core int, l mem.Line, duration uint64) {
	e, ok := p.entries[l]
	if !ok || !e.owned || e.owner != core {
		return
	}
	if end := p.eng.Now() + duration; e.rts < end {
		e.rts = end
	}
}

// LeaseReleased truncates the lease's rts extension: rts shrinks back to
// the latest cycle something still needs it — the line's wts, now, or an
// outstanding read reservation's end — so a subsequent write commits
// without jumping past a reservation nobody holds anymore.
func (p *Protocol) LeaseReleased(core int, l mem.Line) {
	e, ok := p.entries[l]
	if !ok || !e.owned || e.owner != core {
		return
	}
	floor := e.wts
	if now := p.eng.Now(); now > floor {
		floor = now
	}
	for _, rec := range e.res {
		if rec.end > floor {
			floor = rec.end
		}
	}
	if floor < e.rts {
		e.rts = floor
	}
}

// state classifies a line for dumps and LineInfo: owned lines are "M"; an
// unowned line with a live reservation is "S"; otherwise "I". readers is
// the bitset of cores with unexpired reservations.
func (e *entry) state(now uint64) (st string, readers uint64) {
	for c, rec := range e.res {
		if rec.end >= now && c >= 0 && c < 64 {
			readers |= 1 << uint(c)
		}
	}
	switch {
	case e.owned:
		return "M", readers
	case readers != 0:
		return "S", readers
	}
	return "I", readers
}

// LineInfo reports the manager's committed view of one line.
func (p *Protocol) LineInfo(l mem.Line) (string, int, uint64, bool) {
	e, ok := p.entries[l]
	if !ok {
		return "I", 0, 0, false
	}
	st, readers := e.state(p.eng.Now())
	owner := 0
	if e.owned {
		owner = e.owner
	}
	return st, owner, readers, e.busy || len(e.queue) > 0
}

// ForEachLine visits every line the manager has ever tracked.
func (p *Protocol) ForEachLine(fn func(l mem.Line, state string, owner int, sharers uint64, busy bool)) {
	now := p.eng.Now()
	for l, e := range p.entries {
		st, readers := e.state(now)
		owner := 0
		if e.owned {
			owner = e.owner
		}
		fn(l, st, owner, readers, e.busy || len(e.queue) > 0)
	}
}

// QueueLen returns the line's current queue length (including in-service).
func (p *Protocol) QueueLen(l mem.Line) int {
	if e, ok := p.entries[l]; ok {
		n := len(e.queue)
		if e.busy {
			n++
		}
		return n
	}
	return 0
}

// LineTimestamps reports the line's (wts, rts); ok is false for a line the
// manager has never tracked.
func (p *Protocol) LineTimestamps(l mem.Line) (uint64, uint64, bool) {
	if e, ok := p.entries[l]; ok {
		return e.wts, e.rts, true
	}
	return 0, 0, false
}

// CoreTimestamp reports the core's program timestamp.
func (p *Protocol) CoreTimestamp(core int) (uint64, bool) {
	if core >= 0 && core < len(p.pts) {
		return p.pts[core], true
	}
	return 0, false
}

// VerifyLine validates the Tardis agreement and timestamp-order
// invariants for one non-busy line:
//
//   - wts <= rts (a write commits inside the line's read-valid window);
//   - a Modified L1 copy exists only at the recorded owner;
//   - a Shared L1 copy is backed by an unexpired read reservation (stale
//     copies are legal in Tardis only until their reservation elapses —
//     the self-invalidation timer enforces that bound);
//   - every reservation's expiry lies within rts.
func (p *Protocol) VerifyLine(l mem.Line, ncores int, l1 func(core int) cache.State) error {
	e, ok := p.entries[l]
	if !ok {
		return nil
	}
	now := p.eng.Now()
	if e.wts > e.rts {
		return fmt.Errorf("line %#x: wts %d exceeds rts %d", uint64(l), e.wts, e.rts)
	}
	for c := 0; c < ncores; c++ {
		switch l1(c) {
		case cache.Modified:
			if !e.owned || e.owner != c {
				rec := "unowned"
				if e.owned {
					rec = fmt.Sprintf("owner %d", e.owner)
				}
				return fmt.Errorf("line %#x: core %d holds M but timestamp manager records %s", uint64(l), c, rec)
			}
		case cache.Shared:
			rec, held := e.res[c]
			if !held {
				return fmt.Errorf("line %#x: core %d holds S with no read reservation", uint64(l), c)
			}
			if rec.end < now {
				return fmt.Errorf("line %#x: core %d Shared copy outlived its reservation (end %d, now %d)",
					uint64(l), c, rec.end, now)
			}
			if rec.end > e.rts {
				return fmt.Errorf("line %#x: core %d reservation end %d exceeds rts %d",
					uint64(l), c, rec.end, e.rts)
			}
		}
	}
	return nil
}

var _ coherence.Protocol = (*Protocol)(nil)
