// Package sim provides a deterministic discrete-event simulation kernel.
//
// Events execute in a canonical total order keyed by
// (cycle, target domain, source domain, per-source sequence). A domain is a
// scheduling context owned by one simulated actor (one core, or the shared
// system side — directory, L2, memory). The key is shard-invariant: it never
// references global scheduling order, so the same simulation partitioned
// across any number of shards executes per-domain work in the same order and
// produces bit-identical results (see shard.go for the windowed parallel
// executor; with one shard the engine is the familiar sequential kernel).
//
// Simulated cores (procs) are runtime coroutines (iter.Pull) of one driver
// loop per shard, shard.loop, which runs on Run's caller (or, windowed, on
// the shard's worker): it pops events in order, executes callbacks, and
// resumes the proc whose wake comes due. A switch into or out of a proc is
// a runtime.coroswitch on the same thread — no run queue, no wake-up of an
// idle P, no futex — so its cost does not depend on GOMAXPROCS or on how
// many procs exist. Within a shard exactly one of them, the loop or one
// proc, executes at any instant.
//
// A proc that parks (Sync, Block) does not go back to the loop: it keeps
// popping and executing events on its own stack (shard.drive) until its own
// wake pops, which costs no switch at all. Only when another proc's wake
// comes due does it name that proc in shard.handoff and yield; the loop
// resumes the named proc. The loop mediates every proc→proc move because a
// coroutine resumed from inside another would run nested on top of it, and
// could never hand control back to the one underneath. The same yield, with
// no proc named, returns control to the loop when a stop condition is
// reached; a proc whose body returns simply ends up in the loop too.
package sim

import (
	"fmt"
	"math"
	"strings"
	"sync"
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

// noDomain marks "no event executing" (engine idle / between events).
const noDomain = SysDomain - 1

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
// structure, never from global scheduling order, which is what makes the
// order identical at any shard count.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.dom != b.dom {
		return a.dom < b.dom
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// eventHeap is an inlined 4-ary min-heap of events. Compared to
// container/heap it avoids the interface{} boxing allocation on every push
// and the indirect Less/Swap calls on every sift; the wider fan-out halves
// the tree depth, trading cheap sibling compares (same cache line) for
// expensive level hops.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !s[i].before(&s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // drop the fn/proc references so they can be collected
	s = s[:n]
	*h = s
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			best := c
			for j := c + 1; j < end; j++ {
				if s[j].before(&s[best]) {
					best = j
				}
			}
			if !s[best].before(&last) {
				break
			}
			s[i] = s[best]
			i = best
		}
		s[i] = last
	}
	return top
}

// eventRing is a growable power-of-two ring buffer holding the same-cycle
// same-domain FIFO: events a domain schedules for itself at the current
// cycle (After(0, ...) — the dominant case in coherence message hops and
// proc wakes) bypass the heap and run in plain insertion order, which by
// construction is their sequence order. All buffered events share one
// (cycle, domain), so the ring is totally ordered and the dispatcher only
// has to compare its head against the heap top.
type eventRing struct {
	buf  []event // len(buf) is always a power of two (or zero)
	head int
	n    int
}

func (r *eventRing) push(ev event) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = ev
	r.n++
}

func (r *eventRing) pop() event {
	ev := r.buf[r.head]
	r.buf[r.head] = event{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return ev
}

func (r *eventRing) grow() {
	nb := make([]event, max2(16, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = nb, 0
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Domain is a scheduling context owned by one simulated actor. Each core is
// its own domain (id = proc id); the shared system side is SysDomain. A
// domain carries its own sequence counter, so the canonical event key never
// depends on which shard (or how many shards) executed the scheduling code.
//
// A domain's At/After may only be called from that domain's own execution
// context (or while the engine is idle); CrossAt schedules onto another
// domain and, under sharding, is subject to the lookahead bound.
type Domain struct {
	eng *Engine
	sh  *shard
	id  uint32
	seq uint64

	// foreign counts the queued callbacks that another domain scheduled
	// onto this one (probes, invalidations, grants; proc wakes and the
	// domain's own timers are same-domain and do not count). It is kept by
	// shard.push and shard.next, and by the barrier merge for events that
	// crossed shards, so only the owning shard or the coordinator at a
	// barrier ever writes it. Proc.RunAhead reads it: with zero, nothing
	// can reach the domain sooner than one lookahead from now.
	foreign int
}

// ID returns the domain id.
func (d *Domain) ID() uint32 { return d.id }

// Now returns the current simulated time as observed by this domain. Under
// sharding this is the owning shard's clock, which is only meaningful from
// the domain's own execution context.
func (d *Domain) Now() Time { return d.sh.now }

// At schedules fn to run on this domain at absolute time t.
func (d *Domain) At(t Time, fn func()) { d.sh.push(d, d, t, fn, nil) }

// After schedules fn to run on this domain dt cycles from the domain's now.
func (d *Domain) After(dt Time, fn func()) { d.At(d.sh.now+dt, fn) }

// CrossAt schedules fn to run on domain dst at absolute time t. The
// receiver is the calling (source) domain; its clock and sequence counter
// key the event. Once a lookahead is declared (ConfigureSharding) an event
// for another domain must land at least that many cycles after the source's
// now, on either executor; a closer one panics. Windows and proc run-ahead
// both rest on that bound.
func (d *Domain) CrossAt(dst *Domain, t Time, fn func()) { d.sh.push(dst, d, t, fn, nil) }

// CrossAfter schedules fn on dst dt cycles from the source domain's now.
func (d *Domain) CrossAfter(dst *Domain, dt Time, fn func()) { d.CrossAt(dst, d.sh.now+dt, fn) }

// EmitContext reports the emitting execution context for buffered
// telemetry (it satisfies telemetry.DomainContext): the index of the
// owning shard's event buffer — or -1 while the engine is not executing
// parallel windows, meaning the emission must be delivered synchronously —
// plus the shard clock and the canonical key (cycle, domain, src, seq) of
// the event currently executing. Like Now, it may only be called from the
// domain's own execution context.
func (d *Domain) EmitContext() (buf int, now, at Time, dom, src uint32, seq uint64) {
	s := d.sh
	if !s.eng.windowing {
		return -1, s.now, 0, 0, 0, 0
	}
	return s.idx, s.now, s.curAt, s.curDom, s.curSrc, s.curSeq
}

// Engine is a deterministic discrete-event simulator. The zero value is not
// usable; construct with NewEngine. By default the engine is sequential
// (one shard); ConfigureSharding enables the windowed parallel executor.
type Engine struct {
	shards []*shard
	// doms is the dense domain table, indexed by domain id (core domains
	// are proc ids, small by construction); sys sits beside it. next looks
	// an event's target up here, so the event itself carries no pointer.
	doms  []*Domain
	sys   *Domain
	procs []*Proc

	// idleNow is the global time reported while no run is active and the
	// engine has more than one shard (with one shard the shard clock is
	// authoritative).
	idleNow Time

	// Sharding configuration (see ConfigureSharding); applied lazily at
	// the first Run.
	wantShards  int
	lookahead   Time
	domShard    func(uint32) int
	partitioned bool

	// windowing is true while runWindows is executing parallel windows.
	// It is written only by the coordinator while every worker is parked
	// (before the first window starts and after the last barrier), so
	// shard-goroutine reads during a window are race-free.
	windowing bool

	// barrierHook, if set, runs on the coordinating goroutine at every
	// window barrier, after all shards have parked (SetBarrierHook).
	barrierHook func()

	// stats accumulates the self-observability counters of the windowed
	// executor; see Stats.
	stats engineCounters

	// EventCount is the total number of events executed so far, across all
	// shards; refreshed when Run returns. A proc Sync that fast-forwards
	// time (nothing else was due first) consumes no event and is not
	// counted, nor is one that RunAhead made unnecessary.
	EventCount uint64

	// StallLimit is the no-progress watchdog: the maximum number of
	// events a shard will execute at a single cycle before declaring a
	// livelock (a zero-delay event loop never advances time, so a plain
	// deadlock check would spin forever). Legal simulations execute at
	// most a few events per core per cycle; the default is orders of
	// magnitude above that.
	StallLimit uint64
}

// DefaultStallLimit is the default per-cycle event watchdog threshold.
const DefaultStallLimit = 1 << 20

// NewEngine returns an empty sequential engine at time 0.
func NewEngine() *Engine {
	e := &Engine{StallLimit: DefaultStallLimit}
	e.shards = []*shard{newShard(e, 0)}
	e.sys = &Domain{eng: e, sh: e.shards[0], id: SysDomain}
	return e
}

// maxDomains bounds core domain ids, which index the dense domain table.
const maxDomains = 1 << 16

// Domain returns the handle for domain id, creating it on first use. New
// domains live on shard 0 until ConfigureSharding's mapping is applied.
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
		e.doms[id] = &Domain{eng: e, sh: e.shards[0], id: id}
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

// ConfigureSharding declares a conservative lookahead — the minimum latency
// of any cross-domain message, which CrossAt enforces from here on — and
// requests the windowed parallel executor: n shards and a domain→shard
// mapping. It must be called before the first Run; n <= 1 keeps the
// sequential executor, where the lookahead still licenses proc run-ahead
// (Proc.RunAhead). The mapping is applied lazily when Run first executes,
// so it may be called at any point during setup.
func (e *Engine) ConfigureSharding(n int, lookahead Time, domShard func(uint32) int) {
	if e.partitioned {
		panic("sim: ConfigureSharding after Run")
	}
	if n < 1 {
		n = 1
	}
	if n > 1 && lookahead == 0 {
		panic("sim: sharding requires a nonzero lookahead")
	}
	e.wantShards, e.lookahead, e.domShard = n, lookahead, domShard
}

// Shards returns the effective shard count.
func (e *Engine) Shards() int {
	if !e.partitioned && e.wantShards > 1 {
		return e.wantShards
	}
	return len(e.shards)
}

// Now returns the current simulated time. With multiple shards this is only
// meaningful while the engine is idle (between Runs); during execution each
// domain observes time through its own handle.
func (e *Engine) Now() Time {
	if len(e.shards) == 1 {
		return e.shards[0].now
	}
	return e.idleNow
}

// At schedules fn to run on the system domain at absolute time t.
// Scheduling in the past is an error in the simulation logic and panics.
func (e *Engine) At(t Time, fn func()) { e.shards[0].push(e.sys, e.sys, t, fn, nil) }

// After schedules fn to run on the system domain dt cycles from now. Like
// At, it is the single-shard (or idle-engine) convenience surface; sharded
// simulations schedule through Domain handles.
func (e *Engine) After(dt Time, fn func()) { e.At(e.shards[0].now+dt, fn) }

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

// StallError reports a livelock: a shard executed StallLimit events
// without simulated time advancing (e.g. a zero-delay event loop).
type StallError struct {
	Time   Time
	Events uint64 // events executed at Time before the watchdog fired
}

func (s *StallError) Error() string {
	return fmt.Sprintf("sim: no progress — %d events executed at cycle %d without time advancing",
		s.Events, s.Time)
}

// shard is one partition of the simulation: a set of domains, their event
// queues, and the driver loop that executes them. With one shard the Run
// caller runs the loop; with several, each shard has a worker goroutine and
// executes lookahead-bounded windows between barriers (shard.go).
type shard struct {
	eng *Engine
	idx int

	now    Time
	events eventHeap // future (and cross-domain same-cycle) events
	fifo   eventRing // same-cycle same-domain events, in insertion order

	// Canonical key of the event currently executing (curAt/curDom/
	// curSrc/curSeq), maintained by next() as the single source of truth.
	// Emissions made while a proc runs are attributed to the proc's wake
	// event — the last event popped on this shard — which is the same
	// attribution the sequential executor would make, since no other event
	// runs while the proc does.
	curAt  Time
	curDom uint32 // domain of the event currently executing
	curSrc uint32

	// windowEnd is the exclusive execution horizon for the current window
	// (MaxTime when sequential); stopAt caches the engine stop time.
	windowEnd Time
	stopAt    Time

	// handoff is the proc a parked proc asks the loop to resume next: its
	// wake was popped on the parked proc's stack (see drive).
	handoff *Proc

	// verdict holds a stall error detected by this shard's watchdog;
	// fatal holds a wrapped panic from one of its procs or events.
	verdict error
	fatal   *PanicError

	curSeq      uint64 // sequence of the event currently executing
	eventCount  uint64
	stallEvents uint64 // events executed at the current cycle

	// Host-side counters (EngineStats): coroutine resumes by the loop,
	// wakes a parked proc popped for itself, Syncs that moved the clock
	// without an event, Syncs that scheduled a wake, and Syncs a proc did
	// without (RunAhead).
	procSwitches     uint64
	ownWakes         uint64
	syncFastForwards uint64
	syncWakes        uint64
	syncsSkipped     uint64

	// inbox receives cross-shard events; appended under inmu by source
	// shards mid-window, drained into the heap by the coordinator at
	// window barriers.
	inmu  sync.Mutex
	inbox []event
}

func newShard(e *Engine, idx int) *shard {
	return &shard{eng: e, idx: idx, curDom: noDomain,
		windowEnd: MaxTime, stopAt: MaxTime}
}

// push schedules an event from source domain src onto destination domain
// dst. It must run on src's shard (the caller's execution context) or on an
// idle engine.
func (s *shard) push(dst, src *Domain, t Time, fn func(), p *Proc) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %d in the past (now %d)", t, s.now))
	}
	cross := dst != src
	if cross && t-s.now < s.eng.lookahead {
		panic(fmt.Sprintf("sim: lookahead violation: domain %d schedules onto domain %d at cycle %d, closer than %d cycles to now (%d)",
			src.id, dst.id, t, s.eng.lookahead, s.now))
	}
	src.seq++
	ev := event{at: t, seq: src.seq, dom: dst.id, src: src.id, fn: fn, p: p}
	ts := dst.sh
	if ts == s {
		if cross {
			dst.foreign++
		}
		// The ring only buffers a domain's same-cycle self-schedules, and
		// only while the ring is homogeneous (one cycle, one domain), so
		// its entries are totally ordered by construction.
		if t == s.now && ev.dom == s.curDom && ev.src == s.curDom &&
			(s.fifo.n == 0 || s.fifo.buf[s.fifo.head].dom == ev.dom) {
			s.fifo.push(ev)
		} else {
			s.events.push(ev)
		}
		return
	}
	// Cross-shard: conservative lookahead guarantees delivery beyond the
	// current window, so the target shard never misses it. The barrier
	// merge counts it into dst.foreign; until then it is beyond the window
	// and so beyond any run-ahead on the target shard.
	if t < s.windowEnd {
		panic(fmt.Sprintf("sim: lookahead violation: cross-shard event at cycle %d inside window ending %d", t, s.windowEnd))
	}
	ts.inmu.Lock()
	ts.inbox = append(ts.inbox, ev)
	ts.inmu.Unlock()
}

// bound returns the shard's current execution horizon.
func (s *shard) bound() Time {
	if s.windowEnd < s.stopAt {
		return s.windowEnd
	}
	return s.stopAt
}

// next pops the next due event, advancing time and the watchdog counters.
// Only whoever is executing on the shard (the loop, or the proc it resumed)
// may call it. ok == false means this shard is done for now: the horizon
// was reached, the queue drained, or the watchdog fired (s.verdict).
func (s *shard) next() (event, bool) {
	var ev event
	bound := s.bound()
	if s.fifo.n > 0 {
		// Same-cycle work pending (s.now < bound by construction: the
		// ring only fills at the executing cycle). Heap events can still
		// order first — compare keys.
		if s.now >= bound {
			return event{}, false // keep them queued for a later Run
		}
		if len(s.events) > 0 && s.events[0].at == s.now && s.events[0].before(&s.fifo.buf[s.fifo.head]) {
			ev = s.events.pop()
		} else {
			ev = s.fifo.pop()
		}
	} else if len(s.events) > 0 {
		if s.events[0].at >= bound {
			if bound > s.now {
				s.now = bound
				s.stallEvents = 0
			}
			return event{}, false
		}
		ev = s.events.pop()
		if ev.at > s.now {
			s.stallEvents = 0
			s.now = ev.at
		}
	} else {
		// Queue drained: leave the clock at the last executed event (the
		// sequential semantics; windowed shards converge at barriers).
		return event{}, false
	}
	if ev.src != ev.dom {
		s.eng.domain(ev.dom).foreign--
	}
	s.curAt, s.curDom, s.curSrc, s.curSeq = ev.at, ev.dom, ev.src, ev.seq
	s.eventCount++
	s.stallEvents++
	if limit := s.eng.StallLimit; limit > 0 && s.stallEvents > limit {
		s.verdict = &StallError{Time: s.now, Events: s.stallEvents}
		return event{}, false
	}
	return ev, true
}

// empty reports whether the shard has no queued work at all (inbox
// included; callers must be at a barrier or idle).
func (s *shard) empty() bool {
	return len(s.events) == 0 && s.fifo.n == 0 && len(s.inbox) == 0
}

// settle leaves a drained shard's clock at its last executed event, counting
// the wakes RunAhead did without: a proc that acted ahead of the clock and
// then finished or blocked for good would have moved it there. Every such
// time lies inside the horizon it was checked against, so the clock never
// passes a Run's stop time.
func (s *shard) settle() {
	for _, p := range s.eng.procs {
		if p.dom.sh == s && p.aheadAt > s.now {
			s.now = p.aheadAt
			s.stallEvents = 0
		}
	}
}

// Run executes events in canonical order until either every event queue
// drains or simulated time reaches until. It returns a *DeadlockError if
// the queues drain while some procs remain blocked (a genuine simulated
// deadlock), a *StallError if the StallLimit watchdog detects a livelock,
// and nil otherwise.
//
// Run executes the shard's driver loop on the calling goroutine (any
// goroutine, and not necessarily the same one on every call); procs run as
// coroutines of it (see shard.loop). Any panic escaping simulation code —
// an event callback or a proc — is re-raised out of Run as a *PanicError
// carrying the simulated cycle, event sequence number, and proc id, so a
// harness can recover it with full sim context.
//
// With sharding configured, Run instead executes lookahead-bounded windows
// on per-shard workers (see shard.go); the observable results are
// bit-identical to the sequential executor by construction of the event
// key.
func (e *Engine) Run(until Time) error {
	e.partition()
	if len(e.shards) > 1 {
		return e.runWindows(until)
	}
	s := e.shards[0]
	s.stopAt = until
	s.verdict = nil
	s.loop()
	if err := e.collect(); err != nil {
		return err
	}
	if s.empty() {
		s.settle()
		if blocked := e.Blocked(); len(blocked) > 0 {
			return &DeadlockError{Time: s.now, Blocked: blocked}
		}
	}
	return nil
}

// partition applies the sharding configuration on first Run: create the
// worker shards, move every domain (and its queued events) to its mapped
// shard.
func (e *Engine) partition() {
	if e.partitioned {
		return
	}
	e.partitioned = true
	if e.wantShards <= 1 {
		return
	}
	s0 := e.shards[0]
	for i := 1; i < e.wantShards; i++ {
		sh := newShard(e, i)
		sh.now = s0.now
		e.shards = append(e.shards, sh)
	}
	place := func(d *Domain) {
		idx := 0
		if e.domShard != nil {
			idx = e.domShard(d.id)
		}
		if idx < 0 || idx >= len(e.shards) {
			panic(fmt.Sprintf("sim: domain %d mapped to invalid shard %d", d.id, idx))
		}
		d.sh = e.shards[idx]
	}
	place(e.sys)
	for _, d := range e.doms {
		if d != nil {
			place(d)
		}
	}
	// Redistribute setup-time events (the ring is empty while idle; all
	// queued work sits in shard 0's heap).
	pending := s0.events
	s0.events = nil
	for len(pending) > 0 {
		ev := pending.pop()
		e.domain(ev.dom).sh.events.push(ev)
	}
}

// loop is the shard's driver: it pops events in canonical order until a
// stop condition, executing callbacks and resuming the proc whose wake
// came due. It is the only caller of a proc's next, so coroutines never
// nest. A resumed proc comes back here in one of three ways: its body
// returned; it parked, popped another proc's wake and named that proc in
// s.handoff; or it parked and ran into a stop condition, which ends the
// loop with the proc left parked for a later window or Run. A panic from
// an event or a proc is kept in s.fatal for Engine.collect to re-raise.
func (s *shard) loop() {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*PanicError)
			if !ok {
				pe = &PanicError{Cycle: s.now, EventSeq: s.curSeq, ProcID: -1,
					Value: r, Stack: stack()}
			}
			s.fatal = pe
		}
	}()
	for {
		q := s.handoff
		if q != nil {
			s.handoff = nil
		} else {
			ev, ok := s.next()
			if !ok {
				return
			}
			if ev.p == nil {
				s.exec(ev)
				continue
			}
			if q = ev.p; q.state == procDone {
				continue // stale wake for a finished proc
			}
		}
		q.state = procRunning
		s.procSwitches++
		if _, parked := q.next(); parked && s.handoff == nil {
			return
		}
	}
}

// drive runs the event loop on a parked proc's own stack until the proc's
// wake pops — the common case (a miss completing, a Sync with other events
// due first), and it costs no switch. When another proc's wake pops, or a
// stop condition is reached (s.handoff stays nil), self yields to the loop
// and returns when the loop resumes it, which it does for self's wake or
// for Kill.
func (s *shard) drive(self *Proc) {
	for {
		ev, ok := s.next()
		switch {
		case !ok:
			// stop condition: yield with no proc named
		case ev.p == nil:
			s.exec(ev)
			continue
		case ev.p == self:
			s.ownWakes++
			return
		case ev.p.state == procDone:
			continue // stale wake for a finished proc
		default:
			s.handoff = ev.p
		}
		self.yield(struct{}{})
		return
	}
}

// exec runs one event, wrapping any escaping panic in a *PanicError so it
// reaches Run's caller with sim context attached.
func (s *shard) exec(ev event) {
	defer func() {
		if r := recover(); r != nil {
			if pe, ok := r.(*PanicError); ok {
				panic(pe) // already wrapped (proc-side or nested event)
			}
			panic(&PanicError{Cycle: s.now, EventSeq: ev.seq, ProcID: -1,
				Value: r, Stack: stack()})
		}
	}()
	ev.fn()
}

// Drain runs until the event queue is empty (no time bound).
func (e *Engine) Drain() error { return e.Run(MaxTime) }

// Pending returns the number of queued (not yet executed) events.
func (e *Engine) Pending() int {
	n := 0
	for _, s := range e.shards {
		n += len(s.events) + s.fifo.n + len(s.inbox)
	}
	return n
}

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
