package ds

import (
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
)

// QueueLeaseMode selects how the Michael–Scott queue uses leases.
type QueueLeaseMode int

const (
	// QueueNoLease is the base lock-free queue [27].
	QueueNoLease QueueLeaseMode = iota
	// QueueSingleLease leases the head (dequeue) / tail (enqueue)
	// sentinel pointer for each attempt, exactly as in Algorithm 3 —
	// the variant the paper found best.
	QueueSingleLease
	// QueueMultiLease additionally leases the last node's next pointer
	// together with the tail on enqueue (the §7 "multiple leases for
	// linear structures" variant, included to reproduce its measured
	// inferiority to the single lease).
	QueueMultiLease
)

// QueueOptions configures the queue variant.
type QueueOptions struct {
	Mode      QueueLeaseMode
	LeaseTime uint64
}

// Queue is the Michael–Scott non-blocking FIFO queue [27] with the lease
// placements of Algorithm 3.
type Queue struct {
	head mem.Addr // sentinel pointer, own cache line
	tail mem.Addr // sentinel pointer, own cache line (no false sharing, §7)
	opt  QueueOptions
}

// Queue node layout.
const (
	qNext  = 0
	qValue = 8
	qSize  = 16
)

// NewQueue allocates an empty queue with its dummy node.
func NewQueue(x machine.API, opt QueueOptions) *Queue {
	q := &Queue{head: x.Alloc(8), tail: x.Alloc(8), opt: opt}
	dummy := x.Alloc(qSize)
	x.Store(q.head, uint64(dummy))
	x.Store(q.tail, uint64(dummy))
	return q
}

// Enqueue appends v (Algorithm 3, ENQUEUE).
func (q *Queue) Enqueue(x machine.API, v uint64) {
	w := x.Alloc(qSize)
	x.Store(w+qValue, v)
	for {
		leased := false
		switch q.opt.Mode {
		case QueueSingleLease:
			x.Lease(q.tail, q.opt.LeaseTime)
			leased = true
		case QueueMultiLease:
			// Joint lease on the tail pointer and the last node's next
			// pointer. The next address depends on the tail value, so
			// peek at the tail first; the MultiLease itself re-orders
			// the pair in global sorted order.
			tPeek := x.Load(q.tail)
			x.MultiLease(q.opt.LeaseTime, q.tail, mem.Addr(tPeek)+qNext)
			leased = true
		}
		t := x.Load(q.tail)
		n := x.Load(mem.Addr(t) + qNext)
		done := false
		if t == x.Load(q.tail) { // tail still consistent?
			if n == 0 { // tail points to last node
				if x.CAS(mem.Addr(t)+qNext, 0, uint64(w)) {
					x.CAS(q.tail, t, uint64(w)) // swing tail
					done = true
				}
			} else { // tail fell behind: help swing it
				x.CAS(q.tail, t, n)
			}
		}
		if leased {
			if q.opt.Mode == QueueMultiLease {
				x.ReleaseAll()
			} else {
				x.Release(q.tail)
			}
		}
		if done {
			return
		}
	}
}

// Dequeue removes the oldest value (Algorithm 3, DEQUEUE); ok=false when
// the queue is empty.
func (q *Queue) Dequeue(x machine.API) (v uint64, ok bool) {
	for {
		leased := false
		if q.opt.Mode != QueueNoLease {
			x.Lease(q.head, q.opt.LeaseTime)
			leased = true
		}
		h := x.Load(q.head)
		t := x.Load(q.tail)
		n := x.Load(mem.Addr(h) + qNext)
		done, empty := false, false
		if h == x.Load(q.head) { // pointers consistent?
			if h == t {
				if n == 0 {
					empty = true
				} else {
					x.CAS(q.tail, t, n) // tail fell behind, help it
				}
			} else {
				v = x.Load(mem.Addr(n) + qValue)
				if x.CAS(q.head, h, n) { // swing head
					done = true
				}
			}
		}
		if leased {
			x.Release(q.head)
		}
		if empty {
			return 0, false
		}
		if done {
			return v, true
		}
	}
}

// Put is Enqueue, as a Container.
func (q *Queue) Put(x machine.API, _ int, v uint64) { q.Enqueue(x, v) }

// Take is Dequeue, as a Container.
func (q *Queue) Take(x machine.API, _ int) (uint64, bool) { return q.Dequeue(x) }

// Len walks the queue, excluding the dummy (untimed oracle for tests).
func (q *Queue) Len(x machine.API) int {
	n := 0
	for p := x.Load(mem.Addr(x.Load(q.head)) + qNext); p != 0; p = x.Load(mem.Addr(p) + qNext) {
		n++
	}
	return n
}
