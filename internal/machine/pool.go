package machine

import (
	"leaserelease/internal/coherence"
	"leaserelease/internal/mem"
)

// Request pooling. An in-order core has at most one coherence transaction
// outstanding (Proposition 1: the core blocks in Ctx until Complete wakes
// it), so a single reusable Request per core replaces one heap allocation
// per L1 miss. The pooled object is live from acquireReq until the
// requester's Block returns; by then the directory has finished with it —
// under either protocol the commit event, which runs after the grant has
// woken the requester, applies the transition the policy recorded in the
// line's record and never reads the Request (see
// coherence.Directory.scheduleComplete, coherence.LinePolicy). The slot also
// keeps the callbacks of the request's hops through the directory, bound
// once (coherence.Request.Reset), so a miss allocates no closure either.
//
// Race builds add a poison mode (pool_poison_race.go): reuse while a
// request is still in flight panics, and released requests are scribbled
// so any stale read trips loudly (bit() panics on the poisoned core index)
// instead of silently corrupting determinism; a lease-expiry record that
// fires after it went back to its pool panics too.

// acquireReq readies the core's pooled request for one transaction.
func (m *Machine) acquireReq(cs *coreState, l mem.Line, excl, lease bool) *coherence.Request {
	req := cs.req
	poisonAcquire(cs, req)
	req.Reset(cs.id, l, excl, lease)
	return req
}

// releaseReq returns the pooled request after its transaction completed.
func (m *Machine) releaseReq(cs *coreState, req *coherence.Request) {
	poisonRelease(cs, req)
}

// expiry is a started lease's involuntary-release timer: which lease of which
// core to end. Like a request's hops, its callback is bound once; the records
// are pooled per core, and the callback returns its record to the pool before
// it acts (Machine.expire), so a lease allocates nothing once the pool is
// warm. A timer outlives its lease when the lease ends early (cancellation
// is lazy), so the pool holds as many records as timers are ever queued at
// once on the core.
type expiry struct {
	cs   *coreState
	line mem.Line
	gen  uint64
	live bool // scheduled and not yet fired (checked by the -race poison mode)
	next *expiry
	fire func()
}

// expiry takes a record from the core's pool and returns its callback.
func (m *Machine) expiry(cs *coreState, l mem.Line, gen uint64) func() {
	x := cs.expiries
	if x == nil {
		x = &expiry{cs: cs}
		x.fire = func() { m.expire(x) }
	} else {
		cs.expiries = x.next
	}
	x.line, x.gen = l, gen
	poisonTakeExpiry(x)
	return x.fire
}

// freeExpiry returns a fired record to its core's pool.
func (m *Machine) freeExpiry(x *expiry) {
	poisonFreeExpiry(x)
	x.next, x.cs.expiries = x.cs.expiries, x
}
