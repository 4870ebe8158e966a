// Package sim provides a deterministic discrete-event simulation kernel.
//
// Events execute in a canonical total order keyed by
// (cycle, target domain, source domain, per-source sequence). A domain is a
// scheduling context owned by one simulated actor (one core, or the shared
// system side — directory, L2, memory). Every component of the key comes from
// simulation structure, never from the order in which host code happened to
// schedule things, so a run is bit-identical per seed however its setup code
// is arranged.
//
// There is one executor: one clock, one event queue, one driver loop
// (Engine.loop) that runs on Run's caller. Simulated cores (procs) are
// runtime coroutines (iter.Pull) of that loop: it pops events in order,
// executes callbacks, and resumes the proc whose wake comes due. A switch
// into or out of a proc is a runtime.coroswitch on the same thread — no run
// queue, no wake-up of an idle P, no futex — so its cost does not depend on
// GOMAXPROCS or on how many procs exist. Exactly one of them, the loop or
// one proc, executes at any instant, so nothing in an Engine or in the
// simulated state it drives needs synchronisation.
//
// A proc that parks (Sync, Block) does not go back to the loop: it keeps
// popping and executing events on its own stack (Engine.drive) until its own
// wake pops, which costs no switch at all. Only when another proc's wake
// comes due does it name that proc in Engine.handoff and yield; the loop
// resumes the named proc. The loop mediates every proc→proc move because a
// coroutine resumed from inside another would run nested on top of it, and
// could never hand control back to the one underneath. The same yield, with
// no proc named, returns control to the loop when a stop condition is
// reached; a proc whose body returns simply ends up in the loop too. A proc
// whose next step is to post a message and block (a core's L1 miss) need not
// be resumed for it: Proc.BlockAfter queues the post as a callback in the
// slot its wake would have taken, and that costs no move at all.
//
// A simulation may declare a lookahead (DeclareLookahead): the minimum
// latency of any event one domain schedules onto another, which push then
// enforces. Proc.RunAhead rests on it: a proc whose local clock is less
// than one lookahead from now, with nothing queued for its domain from
// outside at or before that clock, knows nothing can reach it by then, and
// may act at its local clock without going through the queue.
package sim

import (
	"fmt"
	"math"
	"strings"
)

// Time is a simulated time in core clock cycles.
type Time = uint64

// MaxTime is the largest representable simulated time.
const MaxTime Time = math.MaxUint64

// SysDomain is the domain id of the shared system side (directory, L2,
// memory). It orders after every core domain at the same cycle, so a
// same-cycle (deliver-to-core, commit-at-directory) pair always delivers
// first.
const SysDomain = ^uint32(0)

// event is a scheduled callback (p == nil) or a proc wake (p != nil; fn is
// unused). Wakes are distinguished so whoever pops one can switch to the
// target proc's coroutine instead of calling into it.
type event struct {
	at  Time
	seq uint64 // per-source-domain sequence: FIFO among same-key ties
	dom uint32 // target domain
	src uint32 // scheduling (source) domain
	fn  func()
	p   *Proc
}

// before is the canonical event order: (cycle, target domain, source
// domain, per-source sequence). Every component is derived from simulation
// structure, never from global scheduling order.
func (a *event) before(b *event) bool { return a.precedes(b.at, b.dom, b.src, b.seq) }

// precedes is before against the key of an event not yet stored.
func (a *event) precedes(at Time, dom, src uint32, seq uint64) bool {
	if a.at != at {
		return a.at < at
	}
	if a.dom != dom {
		return a.dom < dom
	}
	if a.src != src {
		return a.src < src
	}
	return a.seq < seq
}

// Domain is a scheduling context owned by one simulated actor. Each core is
// its own domain (id = proc id); the shared system side is SysDomain. A
// domain carries its own sequence counter, so the canonical event key never
// depends on how the scheduling code of different domains interleaved.
//
// A domain's At/After may only be called from that domain's own execution
// context (or while the engine is idle); CrossAt schedules onto another
// domain and is subject to the lookahead bound.
type Domain struct {
	eng *Engine
	id  uint32
	seq uint64

	// foreign counts the queued callbacks that another domain scheduled
	// onto this one (probes, invalidations, grants; proc wakes and the
	// domain's own timers are same-domain and do not count). It is kept by
	// Engine.push and Engine.next. Proc.RunAhead reads it: with zero,
	// nothing can reach the domain sooner than one lookahead from now, and
	// it need not look in the queue for when the first of them lands.
	foreign int
}

// Now returns the current simulated time.
func (d *Domain) Now() Time { return d.eng.now }

// At schedules fn to run on this domain at absolute time t.
func (d *Domain) At(t Time, fn func()) { d.eng.push(d, d, t, fn, nil) }

// After schedules fn to run on this domain dt cycles from now.
func (d *Domain) After(dt Time, fn func()) { d.At(d.eng.now+dt, fn) }

// CrossAt schedules fn to run on domain dst at absolute time t. The
// receiver is the calling (source) domain; its sequence counter keys the
// event. Once a lookahead is declared (DeclareLookahead) an event for
// another domain must land at least that many cycles after now; a closer
// one panics. Proc run-ahead rests on that bound.
func (d *Domain) CrossAt(dst *Domain, t Time, fn func()) { d.eng.push(dst, d, t, fn, nil) }

// Engine is a deterministic discrete-event simulator. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	// doms is the dense domain table, indexed by domain id (core domains
	// are proc ids, small by construction); sys sits beside it. next looks
	// an event's target up here, so the event itself carries no pointer.
	doms  []*Domain
	sys   *Domain
	procs []*Proc

	now    Time
	events eventQueue

	// lookahead is the declared minimum latency of a cross-domain event
	// (DeclareLookahead; 0 = none declared). started is set by the first Run.
	lookahead Time
	started   bool

	// stopAt is the exclusive execution horizon of the current Run.
	stopAt Time

	// curSeq is the sequence of the event currently executing, maintained
	// by next. While a proc runs it names the proc's wake, the last event
	// popped.
	curSeq uint64

	// inEvent is set while an event callback runs, and stays set when one
	// panics until the loop recovers the panic (see exec).
	inEvent bool

	// handoff is the proc a parked proc asks the loop to resume next: its
	// wake was popped on the parked proc's stack (see drive).
	handoff *Proc

	// verdict holds a stall error detected by the watchdog; fatal holds a
	// wrapped panic from a proc or an event.
	verdict error
	fatal   *PanicError

	stallEvents uint64 // events executed at the current cycle

	// stats holds the host-side counters behind Stats.
	stats EngineStats

	// StallLimit is the no-progress watchdog: the maximum number of
	// events the engine will execute at a single cycle before declaring a
	// livelock (a zero-delay event loop never advances time, so a plain
	// deadlock check would spin forever). Legal simulations execute at
	// most a few events per core per cycle; the default is orders of
	// magnitude above that.
	StallLimit uint64
}

// DefaultStallLimit is the default per-cycle event watchdog threshold.
const DefaultStallLimit = 1 << 20

// NewEngine returns an empty engine at time 0.
func NewEngine() *Engine {
	e := &Engine{StallLimit: DefaultStallLimit, stopAt: MaxTime}
	e.sys = &Domain{eng: e, id: SysDomain}
	return e
}

// maxDomains bounds core domain ids, which index the dense domain table.
const maxDomains = 1 << 16

// Domain returns the handle for domain id, creating it on first use.
func (e *Engine) Domain(id uint32) *Domain {
	if id == SysDomain {
		return e.sys
	}
	if id >= maxDomains {
		panic(fmt.Sprintf("sim: domain id %d out of range (core domains are < %d)", id, maxDomains))
	}
	if int(id) >= len(e.doms) {
		e.doms = append(e.doms, make([]*Domain, int(id)+1-len(e.doms))...)
	}
	if e.doms[id] == nil {
		e.doms[id] = &Domain{eng: e, id: id}
	}
	return e.doms[id]
}

// domain is Domain for an id that an already queued event names.
func (e *Engine) domain(id uint32) *Domain {
	if id == SysDomain {
		return e.sys
	}
	return e.doms[id]
}

// Sys returns the system domain handle (directory, L2, memory).
func (e *Engine) Sys() *Domain { return e.sys }

// DeclareLookahead declares the minimum latency of any cross-domain event,
// which CrossAt enforces from here on and which licenses proc run-ahead
// (Proc.RunAhead). Events already queued are not checked, so it must be
// called before the first Run.
func (e *Engine) DeclareLookahead(lookahead Time) {
	if e.started {
		panic("sim: DeclareLookahead after Run")
	}
	e.lookahead = lookahead
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run on the system domain at absolute time t.
// Scheduling in the past is an error in the simulation logic and panics.
func (e *Engine) At(t Time, fn func()) { e.push(e.sys, e.sys, t, fn, nil) }

// After schedules fn to run on the system domain dt cycles from now.
func (e *Engine) After(dt Time, fn func()) { e.At(e.now+dt, fn) }

// DeadlockError reports that no event is pending while procs are still
// blocked waiting to be woken.
type DeadlockError struct {
	Time    Time
	Blocked []string // description of each blocked proc
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at cycle %d; blocked procs:\n  %s",
		d.Time, strings.Join(d.Blocked, "\n  "))
}

// StallError reports a livelock: the engine executed StallLimit events
// without simulated time advancing (e.g. a zero-delay event loop).
type StallError struct {
	Time   Time
	Events uint64 // events executed at Time before the watchdog fired
}

func (s *StallError) Error() string {
	return fmt.Sprintf("sim: no progress — %d events executed at cycle %d without time advancing",
		s.Events, s.Time)
}

// push schedules an event from source domain src onto destination domain
// dst.
func (e *Engine) push(dst, src *Domain, t Time, fn func(), p *Proc) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d in the past (now %d)", t, e.now))
	}
	if fn == nil && p == nil {
		panic("sim: scheduling a nil callback") // next would read it as a stop
	}
	cross := dst != src
	if cross {
		if t-e.now < e.lookahead {
			panic(fmt.Sprintf("sim: lookahead violation: domain %d schedules onto domain %d at cycle %d, closer than %d cycles to now (%d)",
				src.id, dst.id, t, e.lookahead, e.now))
		}
		dst.foreign++
	}
	src.seq++
	if e.events.push(t, src.seq, dst.id, src.id, fn, p, e.now) {
		e.stats.BucketOverflows++
	}
	if n := uint64(e.Pending()); n > e.stats.MaxPending {
		e.stats.MaxPending = n
	}
}

// next pops the next due event, advancing time and the watchdog counters,
// and returns its callback (p == nil) or the proc it wakes (fn == nil). Only
// whoever is executing (the loop, or the proc it resumed) may call it. Both
// nil means the engine is done for now: the horizon was reached, the queue
// drained, or the watchdog fired (e.verdict). The event is read in place,
// through the pointer min returns, and never copied out (DESIGN.md §2.1).
func (e *Engine) next() (fn func(), p *Proc) {
	ev, far := e.events.min()
	if ev == nil {
		// Queue drained: leave the clock at the last executed event.
		return nil, nil
	}
	if bound := e.stopAt; ev.at >= bound {
		if bound > e.now {
			e.now = bound
			e.stallEvents = 0
		}
		return nil, nil
	}
	if far {
		e.stats.HeapEvents++
	} else {
		e.stats.BucketEvents++
	}
	if ev.at > e.now {
		e.stallEvents = 0
		e.now = ev.at
	}
	if ev.src != ev.dom {
		e.domain(ev.dom).foreign--
	}
	e.curSeq = ev.seq
	fn, p = ev.fn, ev.p
	e.events.pop(far)
	e.stallEvents++
	if limit := e.StallLimit; limit > 0 && e.stallEvents > limit {
		e.verdict = &StallError{Time: e.now, Events: e.stallEvents}
		return nil, nil
	}
	return fn, p
}

// settle leaves a drained engine's clock at its last executed event, counting
// the wakes RunAhead did without: a proc that acted ahead of the clock and
// then finished or blocked for good would have moved it there. Every such
// time lies inside the horizon it was checked against, so the clock never
// passes a Run's stop time.
func (e *Engine) settle() {
	for _, p := range e.procs {
		if p.aheadAt > e.now {
			e.now = p.aheadAt
			e.stallEvents = 0
		}
	}
}

// Run executes events in canonical order until either the event queue
// drains or simulated time reaches until. It returns a *DeadlockError if
// the queue drains while some procs remain blocked (a genuine simulated
// deadlock), a *StallError if the StallLimit watchdog detects a livelock,
// and nil otherwise.
//
// Run executes the driver loop on the calling goroutine (any goroutine, and
// not necessarily the same one on every call, but one at a time); procs run
// as coroutines of it (see loop). Any panic escaping simulation code — an
// event callback or a proc — is re-raised out of Run as a *PanicError
// carrying the simulated cycle, event sequence number, and proc id, so a
// harness can recover it with full sim context.
func (e *Engine) Run(until Time) error {
	e.started = true
	e.stopAt = until
	e.verdict = nil
	e.loop()
	if pe := e.fatal; pe != nil {
		e.fatal = nil
		panic(pe)
	}
	if e.verdict != nil {
		return e.verdict
	}
	if e.Pending() == 0 {
		e.settle()
		if blocked := e.Blocked(); len(blocked) > 0 {
			return &DeadlockError{Time: e.now, Blocked: blocked}
		}
	}
	return nil
}

// loop is the driver: it pops events in canonical order until a stop
// condition, executing callbacks and resuming the proc whose wake came due.
// It is the only caller of a proc's next, so coroutines never nest. A
// resumed proc comes back here in one of three ways: its body returned; it
// parked, popped another proc's wake and named that proc in e.handoff; or it
// parked and ran into a stop condition, which ends the loop with the proc
// left parked for a later Run. A panic from an event or a proc is kept in
// e.fatal for Run to re-raise: a proc's arrives wrapped by the Spawn wrapper,
// an event's that ran on the loop's own stack is wrapped here.
func (e *Engine) loop() {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*PanicError)
			if !ok {
				pe = e.panicError(r, nil)
			}
			e.fatal = pe
			e.inEvent = false
		}
	}()
	for {
		q := e.handoff
		if q != nil {
			e.handoff = nil
		} else {
			fn, p := e.next()
			if fn != nil {
				e.exec(fn)
				continue
			}
			if p == nil {
				return
			}
			if q = p; q.state == procDone {
				continue // stale wake for a finished proc
			}
		}
		q.state = procRunning
		e.stats.ProcSwitches++
		if _, parked := q.next(); parked && e.handoff == nil {
			return
		}
	}
}

// drive runs the event loop on a parked proc's own stack until the proc's
// wake pops — the common case (a miss completing, a Sync with other events
// due first), and it costs no switch. When another proc's wake pops, or a
// stop condition is reached (e.handoff stays nil), self yields to the loop
// and returns when the loop resumes it, which it does for self's wake or
// for Kill.
func (e *Engine) drive(self *Proc) {
	for {
		fn, p := e.next()
		switch {
		case fn != nil:
			e.exec(fn)
			continue
		case p == nil:
			// stop condition: yield with no proc named
		case p == self:
			e.stats.OwnWakes++
			return
		case p.state == procDone:
			continue // stale wake for a finished proc
		default:
			e.handoff = p
		}
		self.yield(struct{}{})
		return
	}
}

// exec runs one event callback. It recovers nothing: a panic leaves
// e.inEvent set, which tells whichever recover catches it — the loop's, or
// the Spawn wrapper's when the callback ran on a driving proc's stack — that
// an event panicked, not a proc. While it is set a proc's Sync, park and
// Rejoin do nothing (as for a killed proc), so a deferred function that
// re-enters the simulation during the unwind (a deferred Unlock) can neither
// run another event nor move the clock: the error names the event that
// panicked.
func (e *Engine) exec(fn func()) {
	e.inEvent = true
	fn()
	e.inEvent = false
}

// panicError wraps a panic value that escaped simulation code with its sim
// context: the executing event's if exec had not returned, else proc p's
// (nil: the loop's own code).
func (e *Engine) panicError(r any, p *Proc) *PanicError {
	pe := &PanicError{ProcID: -1, Cycle: e.now, EventSeq: e.curSeq, Value: r, Stack: stack()}
	if p != nil && !e.inEvent {
		pe.ProcID, pe.LocalClk = p.ID, p.clock
	}
	return pe
}

// IdleUntil moves a drained engine's clock forward to t, where a Run with
// that stop time would have left it had something kept the queue busy: the
// machine's spinning cores, which wait blocked on a line that only an event
// could change and so would have spun on to the horizon (machine.Ctx.Spin).
// It panics if an event is queued or t is in the past.
func (e *Engine) IdleUntil(t Time) {
	if e.Pending() != 0 || t < e.now {
		panic(fmt.Sprintf("sim: IdleUntil(%d) at %d with %d events queued", t, e.now, e.Pending()))
	}
	e.now = t
	e.stallEvents = 0
}

// Drain runs until the event queue is empty (no time bound).
func (e *Engine) Drain() error { return e.Run(MaxTime) }

// Pending returns the number of queued (not yet executed) events.
func (e *Engine) Pending() int { return e.events.len() }

// Blocked describes every currently blocked proc (diagnostics; the same
// strings a DeadlockError would carry).
func (e *Engine) Blocked() []string {
	var blocked []string
	for _, p := range e.procs {
		if p.state == procBlocked {
			blocked = append(blocked, p.describe())
		}
	}
	return blocked
}
