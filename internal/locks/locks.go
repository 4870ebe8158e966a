// Package locks implements the spin lock family used in the paper's
// evaluation — test&set, test&test&set, ticket locks with proportional
// backoff, and CLH queue locks — all on simulated memory, plus the §6
// "Leases for TryLocks" pattern that leases the lock variable for the
// duration of the critical section.
package locks

import (
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
)

// TryLock is a lock offering try-acquire, blocking acquire, and release.
// Implementations live entirely in simulated memory; all methods take the
// calling thread's machine.API.
type TryLock interface {
	// TryLock attempts to acquire without waiting, reporting success.
	TryLock(x machine.API) bool
	// Lock acquires, spinning as needed.
	Lock(x machine.API)
	// Unlock releases. Only the holder may call it.
	Unlock(x machine.API)
	// Addr returns the lock word's address (the natural lease target).
	Addr() mem.Addr
}

// TAS is a test&set spin lock: one word, 0 = free.
type TAS struct{ a mem.Addr }

// NewTAS allocates a TAS lock on its own cache line.
func NewTAS(x machine.API) *TAS { return &TAS{a: x.Alloc(8)} }

// TryLock attempts a single atomic swap.
func (l *TAS) TryLock(x machine.API) bool { return x.Swap(l.a, 1) == 0 }

// Lock spins on the swap (every attempt is a coherence write).
func (l *TAS) Lock(x machine.API) {
	for x.Swap(l.a, 1) != 0 {
		x.Work(4)
	}
}

// Unlock clears the lock word.
func (l *TAS) Unlock(x machine.API) { x.Store(l.a, 0) }

// Addr returns the lock word address.
func (l *TAS) Addr() mem.Addr { return l.a }

// TTS is a test&test&set lock: spin reading (cheap, Shared) and attempt
// the swap only when the lock looks free — the classic pattern the paper's
// lock examples assume.
type TTS struct{ a mem.Addr }

// NewTTS allocates a TTS lock on its own cache line.
func NewTTS(x machine.API) *TTS { return &TTS{a: x.Alloc(8)} }

// TryLock tests, then sets.
func (l *TTS) TryLock(x machine.API) bool {
	if x.Load(l.a) != 0 {
		return false
	}
	return x.Swap(l.a, 1) == 0
}

// Lock spins on the read, swapping when free.
func (l *TTS) Lock(x machine.API) {
	for {
		for u := x.Load(l.a); u != 0; u = x.Spin(l.a, u, 4) {
		}
		if x.Swap(l.a, 1) == 0 {
			return
		}
	}
}

// Unlock clears the lock word.
func (l *TTS) Unlock(x machine.API) { x.Store(l.a, 0) }

// Addr returns the lock word address.
func (l *TTS) Addr() mem.Addr { return l.a }

// Ticket is a ticket lock with proportional (linear) backoff, the
// "optimized ticket lock" baseline of Figure 3. The next-ticket and
// now-serving words live on separate cache lines.
type Ticket struct {
	next    mem.Addr
	serving mem.Addr
	// BackoffUnit is the per-waiter spin pause multiplied by the queue
	// distance (linear backoff; 0 disables).
	BackoffUnit uint64
}

// NewTicket allocates a ticket lock with a default proportional backoff.
func NewTicket(x machine.API) *Ticket {
	return &Ticket{next: x.Alloc(8), serving: x.Alloc(8), BackoffUnit: 30}
}

// Lock takes a ticket and spins until served, backing off proportionally
// to its distance from the head of the queue: the pause is constant while
// the now-serving word is, so each wait for it to move is one Spin.
func (l *Ticket) Lock(x machine.API) {
	t := x.FetchAdd(l.next, 1)
	for s := x.Load(l.serving); s != t; {
		s = x.Spin(l.serving, s, l.BackoffUnit*(t-s))
	}
}

// TryLock acquires only if the lock is immediately free (no waiters).
func (l *Ticket) TryLock(x machine.API) bool {
	s := x.Load(l.serving)
	n := x.Load(l.next)
	if s != n {
		return false
	}
	return x.CAS(l.next, n, n+1)
}

// Unlock passes the lock to the next ticket holder.
func (l *Ticket) Unlock(x machine.API) {
	x.Store(l.serving, x.Load(l.serving)+1)
}

// Addr returns the now-serving word (the word critical sections contend
// on; leasing a ticket lock is not meaningful and not used by the paper).
func (l *Ticket) Addr() mem.Addr { return l.serving }

// CLH is a CLH queue lock [6, 24]: threads enqueue on a tail pointer and
// spin locally on their predecessor's node.
type CLH struct{ tail mem.Addr }

// CLHHandle is a thread's private queue node state. Each thread must use
// its own handle.
type CLHHandle struct {
	node mem.Addr
	pred mem.Addr
}

// NewCLH allocates the lock with a free dummy node at the tail.
func NewCLH(x machine.API) *CLH {
	l := &CLH{tail: x.Alloc(8)}
	dummy := x.Alloc(8) // 0 = released
	x.Store(dummy, 0)
	x.Store(l.tail, uint64(dummy))
	return l
}

// NewHandle allocates a thread's CLH node.
func (l *CLH) NewHandle(x machine.API) *CLHHandle {
	return &CLHHandle{node: x.Alloc(8)}
}

// Lock enqueues h's node and spins on the predecessor's node word.
func (l *CLH) Lock(x machine.API, h *CLHHandle) {
	x.Store(h.node, 1) // locked
	h.pred = mem.Addr(x.Swap(l.tail, uint64(h.node)))
	for u := x.Load(h.pred); u != 0; u = x.Spin(h.pred, u, 8) {
	}
}

// Unlock releases h's node; the predecessor node is recycled as h's next
// queue node (standard CLH recycling).
func (l *CLH) Unlock(x machine.API, h *CLHHandle) {
	x.Store(h.node, 0)
	h.node = h.pred
}

// Leased wraps a TryLock with the §6 pattern: the thread leases the lock
// variable before try_lock and holds the lease for the whole critical
// section, so (a) the unlock is a guaranteed L1 hit and (b) waiters queue
// behind the lease instead of bouncing the line. A failed try_lock drops
// the lease immediately ("a thread should immediately release a lock that
// is already owned").
type Leased struct {
	Inner     TryLock
	LeaseTime uint64
}

// NewLeased wraps inner, leasing for leaseTime cycles per acquisition.
func NewLeased(inner TryLock, leaseTime uint64) *Leased {
	return &Leased{Inner: inner, LeaseTime: leaseTime}
}

// TryLock leases the lock line, then tries the inner lock; on failure the
// lease is dropped at once.
func (l *Leased) TryLock(x machine.API) bool {
	x.Lease(l.Inner.Addr(), l.LeaseTime)
	if l.Inner.TryLock(x) {
		return true
	}
	x.Release(l.Inner.Addr())
	return false
}

// Lock loops TryLock with a brief pause between failures.
func (l *Leased) Lock(x machine.API) {
	for !l.TryLock(x) {
		x.Work(16)
	}
}

// Unlock releases the inner lock, then the lease (the reset is an L1 hit
// while the lease holds).
func (l *Leased) Unlock(x machine.API) {
	l.Inner.Unlock(x)
	x.Release(l.Inner.Addr())
}

// Addr returns the inner lock's address.
func (l *Leased) Addr() mem.Addr { return l.Inner.Addr() }
