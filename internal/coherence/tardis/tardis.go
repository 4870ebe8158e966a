// Package tardis implements Tardis-style logical-timestamp cache
// coherence ("Tardis 2.0: Optimized Time Traveling Coherence for Relaxed
// Consistency Models") as a line policy of coherence.Directory: the
// timestamp manager's per-line state and decisions. Messages, queues, hops
// and the probe path are the directory's, the same code MSI runs on.
//
// Instead of tracking a sharer list and fanning out invalidations, the
// timestamp manager keeps per-line write/read timestamps (wts, rts) in the
// cycle domain:
//
//   - A read grant is a bounded reservation: the requester may keep its
//     Shared copy until an absolute end cycle, rts is extended to cover it
//     (rts = max(rts, grant+readLease)), and the copy self-invalidates at
//     its lapse — no message, no directory transaction. A reservation is a
//     value in the line's record; its lapse is a directory notice on the
//     reader's domain, acted on only if the record still ends then.
//   - A write to a line with unexpired reservations does not invalidate
//     them: its logical commit time jumps past rts (wts = rts+1) and the
//     stale Shared copies expire on their own. This is the fan-out MSI
//     pays and Tardis does not (counted as RTSJumps).
//   - A re-read of a line whose wts is unchanged since the reader's last
//     reservation is a tag-only renewal: the manager only extends rts, at
//     L2-tag latency, with no data transfer (counted as Renewals).
//
// Ownership transfer still requires a probe to the current owner — the
// directory's forward path — which is where the paper's lease deferral
// plugs in unchanged: a leased owner queues the probe and the directory
// waits for ProbeDone. Leases also map natively onto the timestamp model:
// a started lease extends the owned line's rts by the lease duration
// (bounded by MAX_LEASE_TIME upstream) and a release truncates the
// extension back to max(wts, now).
//
// Data always comes from the shared backing store, so operation results
// are exact even while stale-timing Shared copies coexist with a new
// owner; wts/rts govern timing and are validated by Verify
// (timestamp-order invariants), never consulted for values.
//
// The MESI Exclusive-clean option does not apply and Directory.MESI is
// ignored.
package tardis

import (
	"fmt"
	"slices"

	"leaserelease/internal/cache"
	"leaserelease/internal/coherence"
	"leaserelease/internal/mem"
	"leaserelease/internal/sim"
)

// readLease is the physical-cycle length of one read reservation: how long a
// granted Shared copy stays readable before self-invalidating. Longer
// reservations amortize more reads per fetch but delay a writer's logical
// commit time further past rts.
const readLease = 2000

// Config has nothing left to tune. It and New's core count are parameters
// because benchmarks/leaseperf, a frozen path, passes them.
type Config struct{}

// New builds a directory run by the Tardis timestamp manager over the given
// engine and environment; the core count is unread (see Config).
func New(eng *sim.Engine, env coherence.Env, t coherence.Timing, _ Config, _ int) *coherence.Directory {
	m := new(manager)
	m.dir = coherence.New(eng, env, t, m, 0x7A2D15) // a jitter stream of its own, not MSI's
	return m.dir
}

// manager is the timestamp manager, the policy's state across lines, and
// the slab its line records come from.
type manager struct {
	dir   *coherence.Directory
	lines coherence.Slab[line]
}

func (m *manager) Name() string { return coherence.ProtocolTardis }

func (m *manager) NewLine(mem.Line) *coherence.Line {
	e := m.lines.New()
	e.m, e.pCore, e.pPrev = m, -1, -1
	e.Policy = e
	return &e.Line
}

// line returns the manager's record of l, or nil.
func (m *manager) line(l mem.Line) *line {
	if ln := m.dir.Line(l); ln != nil {
		return ln.Policy.(*line)
	}
	return nil
}

// reservation is one core's read grant on a line. The record outlives the
// reservation itself (end in the past) so a later re-read can check
// whether the line was written since (wts match = tag-only renewal).
type reservation struct {
	core int
	end  uint64 // the cycle the Shared copy lapses
	wts  uint64 // line wts at grant time (renewal check)
}

// line is the timestamp manager's per-line state.
type line struct {
	coherence.Line
	m *manager

	wts   uint64 // logical write timestamp (cycle domain)
	rts   uint64 // logical read timestamp: reads are valid through rts
	owned bool
	owner int
	res   []reservation // at most one per core, searched linearly

	// Pending transition for the request in service (at most one per
	// line), applied by Commit. pCore is -1 between transactions.
	pCore  int    // the requester
	pOwned bool   // it becomes the owner; otherwise it gets a read reservation
	pPrev  int    // previous owner to re-reserve on a read-forward, or -1
	pLease uint64 // rts extension of a lease that started with the grant
}

// find returns core's reservation record, or nil.
func (e *line) find(core int) *reservation {
	for i := range e.res {
		if e.res[i].core == core {
			return &e.res[i]
		}
	}
	return nil
}

// drop deletes core's reservation record, if it has one.
func (e *line) drop(core int) {
	e.res = slices.DeleteFunc(e.res, func(r reservation) bool { return r.core == core })
}

// canRenew reports whether core's read can be served as a tag-only
// renewal: it held a reservation on the line and the line's wts is
// unchanged since, so only rts needs extending — the data the core last
// saw is still current.
func (e *line) canRenew(core int) bool {
	r := e.find(core)
	return r != nil && r.wts == e.wts
}

func (e *line) Serve(req *coherence.Request) coherence.Decision {
	e.pCore, e.pOwned, e.pPrev, e.pLease = req.Core, req.Excl, -1, 0
	switch {
	case e.owned && e.owner != req.Core:
		// Ownership transfer needs the owner's copy back: forward a probe,
		// exactly as MSI does — this is where lease deferral applies.
		if !req.Excl {
			e.pPrev = e.owner // the downgraded owner keeps a readable copy
		}
		return coherence.Decision{Forward: true, Owner: e.owner}

	case !req.Excl && e.canRenew(req.Core):
		// Tag-only renewal: wts is unchanged since the requester's last
		// reservation, so the manager only extends rts — no data access,
		// no transfer beyond the grant message.
		e.m.dir.Stats.Renewals++
		return coherence.Decision{TagOnly: true}
	}
	// Fill from L2/DRAM (or a write to an unowned line). Note the write
	// case sends no invalidations even with unexpired read reservations
	// outstanding: the commit jumps past rts instead.
	return coherence.Decision{}
}

// reserve grants core a read reservation until end, in place of any it
// held: the record feeds renewal checks, Verify and the lapse notice.
func (e *line) reserve(core int, end uint64) {
	if r := e.find(core); r != nil {
		*r = reservation{core, end, e.wts}
		return
	}
	e.res = append(e.res, reservation{core, end, e.wts})
}

// Commit applies the pending transition. A read grant reserves the copies
// of the requester and, on a read-forward, of the downgraded owner; both
// lapse at end.
func (e *line) Commit() (readers uint64, end sim.Time) {
	now := e.m.dir.Now()
	if e.pOwned {
		wts := now
		if e.rts >= wts {
			// Unexpired read reservations (or a logical clock already
			// ahead): the write's logical commit time jumps past rts
			// rather than invalidating the readers.
			wts = e.rts + 1
			e.m.dir.Stats.RTSJumps++
		}
		e.wts, e.rts = wts, max(wts, e.pLease)
		e.owned, e.owner = true, e.pCore
		e.drop(e.pCore) // the owner needs no read reservation
	} else {
		end = now + readLease
		e.rts = max(e.rts, end)
		e.reserve(e.pCore, end)
		readers = 1 << uint(e.pCore)
		if e.pPrev >= 0 && e.pPrev != e.pCore {
			// A read-forward downgraded the owner to Shared: its copy
			// stays readable under the same reservation bound.
			e.reserve(e.pPrev, end)
			readers |= 1 << uint(e.pPrev)
		}
		e.owned = false
	}
	e.pCore = -1
	return readers, end
}

// Lapsed: core's copy lapses now if its record still ends now — not
// re-granted (a later end: the ends of one core's grants strictly increase,
// as a line commits at most once a cycle), evicted or promoted (no record)
// meanwhile — and no grant to core is in flight to replace the copy.
func (e *line) Lapsed(core int) bool {
	r := e.find(core)
	return r != nil && r.end == e.m.dir.Now() && e.pCore != core
}

// Evict: a writeback surrenders ownership, unless it has moved on and the
// notice is stale; timestamps persist (they describe the logical past). A
// Shared eviction drops the reservation record, so the lapse notice finds
// nothing to invalidate and a later re-read takes a full fill (the data is
// gone from the L1 either way).
func (e *line) Evict(core int, dirty bool) {
	switch {
	case !dirty:
		e.drop(core)
	case e.owned && e.owner == core:
		e.owned = false
	}
}

// granted reports whether core's exclusive grant on the line has been
// delivered in this cycle and is not committed yet. Only then can a core
// whose own request is in service, and which is therefore blocked, report a
// lease on the line.
func (e *line) granted(core int) bool { return e.pCore == core && e.pOwned }

// LeaseStarted maps a started lease onto the timestamp model: the lease is
// a bounded rts reservation on the owned line — rts extends to cover the
// lease window (duration is clamped to MAX_LEASE_TIME upstream), declaring
// the owner's copy logically valid through the lease deadline. A lease that
// starts with the grant is reported before the line's Commit, which would
// overwrite rts: the extension waits in the pending transition.
func (m *manager) LeaseStarted(core int, l mem.Line, duration uint64) {
	e := m.line(l)
	end := m.dir.Now() + duration
	switch {
	case e == nil:
	case e.granted(core):
		e.pLease = end
	case e.owned && e.owner == core:
		e.rts = max(e.rts, end)
	}
}

// LeaseReleased truncates the lease's rts extension back to the latest
// cycle something still needs it, the line's wts or now, so a subsequent
// write commits without jumping past a reservation nobody holds anymore.
// No read reservation needs more: each ends before the wts of the commit
// that made the line owned (Verify checks it).
func (m *manager) LeaseReleased(core int, l mem.Line) {
	e := m.line(l)
	switch {
	case e == nil:
	case e.granted(core):
		e.pLease = 0
	case e.owned && e.owner == core:
		e.rts = min(e.rts, max(e.wts, m.dir.Now()))
	}
}

// Private: only an owned line is private to its owner. A Shared copy reads
// a word that a new owner may overwrite with no message to the reader (its
// write commits past rts). A store to an owned line is private only while
// no other core's reservation on it ends at or after now: until its lapse
// notice, such a reader still reads the word the store writes.
func (m *manager) Private(core int, l mem.Line, write bool) bool {
	e := m.line(l)
	if e == nil || !e.owned || e.owner != core {
		return false
	}
	if write {
		now := m.dir.Now()
		for _, r := range e.res {
			if r.end >= now {
				return false
			}
		}
	}
	return true
}

// View classifies a line for dumps: owned lines are "M"; an unowned line
// with a live reservation is "S"; otherwise "I". Sharers is the bitset of
// cores with unexpired reservations.
func (e *line) View() coherence.LineView {
	v := coherence.LineView{State: "I", WTS: e.wts, RTS: e.rts}
	now := e.m.dir.Now()
	for _, r := range e.res {
		if r.end >= now {
			v.Sharers |= 1 << uint(r.core)
		}
	}
	switch {
	case e.owned:
		v.State, v.Owner = "M", e.owner
	case v.Sharers != 0:
		v.State = "S"
	}
	return v
}

// Verify validates the Tardis agreement and timestamp-order invariants:
//
//   - wts <= rts (a write commits inside the line's read-valid window);
//   - every reservation ends within rts and, while the line is owned,
//     before wts (what LeaseReleased's truncation rests on);
//   - a Modified L1 copy exists only at the recorded owner;
//   - a Shared L1 copy is backed by an unexpired read reservation (stale
//     copies are legal in Tardis only until their reservation elapses —
//     the lapse notice enforces that bound).
func (e *line) Verify(id mem.Line, ncores int, l1 func(core int) cache.State) error {
	l, now := uint64(id), e.m.dir.Now()
	if e.wts > e.rts {
		return fmt.Errorf("line %#x: wts %d exceeds rts %d", l, e.wts, e.rts)
	}
	for _, r := range e.res {
		if r.end > e.rts {
			return fmt.Errorf("line %#x: core %d reservation end %d exceeds rts %d", l, r.core, r.end, e.rts)
		}
		if e.owned && r.end >= e.wts {
			return fmt.Errorf("line %#x: core %d reservation end %d is not before wts %d of the line owned by %d",
				l, r.core, r.end, e.wts, e.owner)
		}
	}
	for c := 0; c < ncores; c++ {
		switch l1(c) {
		case cache.Modified:
			if !e.owned || e.owner != c {
				rec := "unowned"
				if e.owned {
					rec = fmt.Sprintf("owner %d", e.owner)
				}
				return fmt.Errorf("line %#x: core %d holds M but timestamp manager records %s", l, c, rec)
			}
		case cache.Shared:
			r := e.find(c)
			if r == nil {
				return fmt.Errorf("line %#x: core %d holds S with no read reservation", l, c)
			}
			if r.end < now {
				return fmt.Errorf("line %#x: core %d Shared copy outlived its reservation (end %d, now %d)",
					l, c, r.end, now)
			}
		}
	}
	return nil
}
