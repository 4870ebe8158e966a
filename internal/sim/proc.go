package sim

import (
	"fmt"
	"iter"
)

type procState int

const (
	procCreated procState = iota
	procRunning           // currently executing (every other proc and the loop are parked)
	procBlocked           // waiting for an external wake (coherence reply, ...)
	procDone
)

// Proc is a simulated hardware context (one in-order core running one
// thread). Proc code runs as a coroutine of the engine's driver loop
// (Engine.loop): the loop resumes it, it runs until it yields or returns,
// and nothing else executes meanwhile, so all engine and simulated state is
// accessed race-free without locks. Each proc is its own scheduling domain
// (id = proc id).
//
// A proc keeps a local clock that it advances as it "executes". Before any
// action that can touch shared simulated state it must call Sync, which
// parks the proc until simulated time has caught up with its local clock.
// This is what makes the whole simulation deterministic. An action confined
// to the proc's own domain may skip the Sync when RunAhead allows it.
type Proc struct {
	ID  int
	eng *Engine
	dom *Domain

	clock Time
	state procState

	// aheadAt is the local time of the proc's last action ahead of the
	// engine clock (RunAhead): where the wake it did without would have been.
	aheadAt Time

	// The proc's coroutine (iter.Pull): next resumes it until it yields or
	// its body returns (false) and may only be called by Engine.loop; stop
	// makes a parked yield return so Kill can unwind it (a coroutine that
	// never started just exits); yield, valid on the coroutine itself,
	// parks it and returns control to the loop.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	blockReason string
	blockSince  Time

	preempted Time // cycles spent descheduled (Preempt)

	killed bool

	rng RNG
}

// scheduleWake schedules the proc's (single) pending wake at time t. A
// proc is parked from when its wake is scheduled until it fires, so there
// is never more than one outstanding wake per proc. Wakes are same-domain
// events keyed by the proc's own sequence counter.
func (p *Proc) scheduleWake(t Time) { p.eng.push(p.dom, p.dom, t, nil, p) }

// killToken unwinds a killed proc's coroutine through a panic that the
// Spawn wrapper recovers.
type killToken struct{}

// Spawn creates a proc running fn, starting at time start. fn runs to
// completion as a coroutine, interleaved deterministically with other
// procs by the engine. The proc's scheduling domain is uint32(id).
func (e *Engine) Spawn(id int, start Time, seed uint64, fn func(*Proc)) *Proc {
	p := &Proc{
		ID:  id,
		eng: e,
		dom: e.Domain(uint32(id)),
		rng: NewRNG(seed),
	}
	e.procs = append(e.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			p.state = procDone
			r := recover()
			if _, killed := r.(killToken); r == nil || killed {
				return // back to the loop, or to Kill
			}
			// No harness can recover a panic on the coroutine's stack. Wrap
			// it with sim context and re-raise: iter.Pull carries it to the
			// loop's q.next() call, and from there it reaches Run's caller.
			pe, ok := r.(*PanicError)
			if !ok {
				pe = e.panicError(r, p)
			}
			panic(pe)
		}()
		p.yield = yield
		p.clock = e.now // the start wake just popped
		fn(p)
	})
	p.state = procBlocked
	p.blockReason = "waiting to start"
	p.scheduleWake(start)
	return p
}

// park records the proc as blocked and drives the engine until the proc's
// own wake fires (possibly after yielding to the loop so other procs run in
// between), returning the wake time.
func (p *Proc) park(reason string) Time {
	if p.killed || p.eng.inEvent {
		// The killToken unwind, or an event's panic unwinding this proc's
		// stack (Engine.exec), can run user defers (e.g. a deferred
		// Unlock) that re-enter the simulation; the engine is being torn
		// down, so parking would hang or run on. Pretend the wait
		// completed instantly.
		return p.clock
	}
	p.state = procBlocked
	p.blockReason = reason
	e := p.eng
	p.blockSince = e.now
	e.drive(p)
	if p.killed {
		panic(killToken{})
	}
	p.state = procRunning
	return e.now // a popped event's time is the engine clock
}

// Kill unwinds a blocked proc: its coroutine exits without running further
// user code (a proc that never started never runs its body at all). Kill
// must only be called while the engine is idle (Run has returned); it is a
// no-op on running or finished procs.
func (p *Proc) Kill() {
	if p.state != procBlocked {
		return
	}
	p.killed = true
	p.stop()
	p.state = procDone
}

// KillAll unwinds every blocked proc. Call after Run returns to tear a
// simulation down without leaking goroutines.
func (e *Engine) KillAll() {
	for _, p := range e.procs {
		p.Kill()
	}
}

// Sync parks the proc until simulated time reaches its local clock. After
// Sync returns, the proc's domain clock equals p.Clock() and the proc may
// safely perform an action on shared simulated state timestamped at its
// local clock.
//
// Fast path: when nothing else is scheduled before the proc's local clock
// (and the clock is inside the current execution horizon), parking would
// only make the proc's own wake the next event executed, so the proc
// advances the engine clock itself and keeps running — no event, no switch.
// This is safe (nothing else runs while the proc does) and exactly
// order-preserving: the wake it skips would have been the next event.
func (p *Proc) Sync() {
	s := p.eng
	if p.killed || s.inEvent {
		return // unwinding defers must not schedule wakes or move time
	}
	if p.clock < s.now {
		// The proc fell behind engine time (it was woken by an event
		// that completed later than its local clock): jump forward.
		p.clock = s.now
		return
	}
	if p.clock == s.now {
		return
	}
	if p.canFastForward() {
		s.now = p.clock
		s.stallEvents = 0
		s.stats.SyncFastForwards++
		return
	}
	s.stats.SyncWakes++
	p.scheduleWake(p.clock)
	p.clock = p.park("advancing clock")
}

// canFastForward reports whether nothing is due before the proc's local clock,
// which lies inside the execution horizon: a Sync to it moves the engine
// clock itself.
func (p *Proc) canFastForward() bool {
	s := p.eng
	return s.events.nextAt() > p.clock && p.clock < s.stopAt
}

// RunAhead reports whether the proc may, instead of calling Sync, act at its
// local clock T right now, while the engine clock is still behind it. The
// action must read and write only state that nothing but events of the
// proc's own domain and the proc itself touch (an L1 hit: the core's ways,
// its hit counter, a word of a line the core holds). The caller answers for
// two things the engine cannot see: expiring says one of the domain's own
// timers fires at or before T, and shared says the state the action touches
// is not private to the domain after all (another domain can reach it with
// no callback to this one). The engine answers for everything else:
//
//   - a lookahead L is declared and now < T < now+L. Whatever an event at or
//     after now schedules onto this domain from another one lands at now+L
//     or later (push enforces it), so beyond T;
//   - no callback from another domain is queued for this domain at or before
//     T. One queued after T orders after the action's wake anyway;
//   - T is inside the execution horizon, so a Run slice performs the
//     actions it would have performed with Sync.
//
// Then no event that can see or change what the action touches orders before
// the wake Sync would have scheduled, and dropping that wake leaves the
// relative order of all other events as it was: the result is the one Sync
// gives, without the push, the pop and the switches. When nothing at
// all is due before T, Sync is free already and RunAhead declines.
//
// A refusal with T ahead of the clock is counted under the first of these
// that fails, in the order lookahead, foreign callback, horizon, expiry,
// shared state, free Sync (EngineStats.RefusedLookahead and on).
func (p *Proc) RunAhead(expiring, shared bool) bool {
	s := p.eng
	t := p.clock
	if t <= s.now || p.killed {
		return false
	}
	switch {
	case t-s.now >= s.lookahead:
		s.stats.RefusedLookahead++
	case p.dom.foreign != 0 && s.events.foreignBy(p.dom.id, t, s.now):
		s.stats.RefusedForeign++
	case t >= s.stopAt:
		s.stats.RefusedStop++
	case expiring:
		s.stats.RefusedExpiry++
	case shared:
		s.stats.RefusedShared++
	case p.canFastForward():
		s.stats.RefusedFastForward++ // Sync fast-forwards
	default:
		s.stats.SyncsSkipped++
		p.aheadAt = t
		return true
	}
	return false
}

// Reached returns the latest simulated time the proc has acted at: the engine
// clock, or its last action ahead of it (RunAhead) if that is later. It is
// where a drained engine's clock would settle if this proc had been the last
// thing to run.
func (p *Proc) Reached() Time { return max(p.eng.now, p.aheadAt) }

// Block parks the proc until some event calls WakeAt. It returns the wake
// time and sets the local clock to it. reason is used in deadlock reports.
func (p *Proc) Block(reason string) Time {
	t := p.park(reason)
	p.clock = t
	return t
}

// BlockAfter is Sync, then issue(), then Block(reason), without resuming the
// proc for the issue: when Sync would park, issue is queued instead as a
// callback on the proc's domain at its local clock — the (cycle, target,
// source, sequence) key the Sync wake would have had — and the proc blocks
// at once. Every other event keeps its place in the order, and issue runs
// where the proc would have, without the two switches. issue must act only
// on what the proc would have acted on at its local clock, and the proc must
// not depend on anything that happens between now and then (a core whose
// next step is a miss: it has nothing else to do until the grant). When Sync
// would not park (the clock is not ahead, nothing is due before it, or the
// proc is being killed or unwound by an event's panic), BlockAfter is
// literally Sync, issue(), Block.
func (p *Proc) BlockAfter(issue func(), reason string) Time {
	s := p.eng
	if p.clock <= s.now || p.killed || s.inEvent || p.canFastForward() {
		p.Sync()
		issue()
		return p.Block(reason)
	}
	s.stats.SyncIssues++
	s.push(p.dom, p.dom, p.clock, issue, nil)
	return p.Block(reason)
}

// WakeAt schedules p (which must be blocked via Block) to resume at time t.
// It must be called from event context on p's own domain (e.g. the
// completion delivery that unblocks it).
func (p *Proc) WakeAt(t Time) { p.scheduleWake(t) }

// Clock returns the proc's local time.
func (p *Proc) Clock() Time { return p.clock }

// Work advances the local clock by n cycles of purely local computation.
func (p *Proc) Work(n Time) { p.clock += n }

// Preempt models the core being descheduled for n cycles: the proc
// issues no events and performs no work while its local clock advances.
// To the engine this is indistinguishable from local compute — which is
// the architectural point: timers armed on the (still-powered) cache
// hardware, such as lease expiries, keep firing while the thread is off
// the core. Preempted cycles are counted separately so harnesses can
// check conservation against the fault injector's draws.
func (p *Proc) Preempt(n Time) {
	p.clock += n
	p.preempted += n
}

// PreemptedCycles returns the total cycles this proc spent descheduled.
func (p *Proc) PreemptedCycles() Time { return p.preempted }

// RNG returns the proc's deterministic random number generator.
func (p *Proc) RNG() *RNG { return &p.rng }

// Status reports the proc's scheduling state for diagnostics: done means
// the thread function returned (or the proc was killed); blocked means it
// is parked waiting for a wake, with the reason and the cycle it parked.
func (p *Proc) Status() (blocked bool, reason string, since Time, done bool) {
	switch p.state {
	case procBlocked:
		return true, p.blockReason, p.blockSince, false
	case procDone:
		return false, "", 0, true
	}
	return false, "", 0, false
}

func (p *Proc) describe() string {
	return fmt.Sprintf("proc %d: %s (since cycle %d, local clock %d)",
		p.ID, p.blockReason, p.blockSince, p.clock)
}
