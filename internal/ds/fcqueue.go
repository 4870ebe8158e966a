package ds

import (
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
)

// FCQueue is a flat-combining FIFO queue [18] over a sequential linked
// queue — the optimized software comparator for the Michael–Scott queue (§2
// cites combining as a leading software technique for contended queues).
type FCQueue struct {
	combiner
	head mem.Addr // sequential queue head (combiner-only)
	tail mem.Addr // sequential queue tail (combiner-only)
}

// NewFCQueue allocates the queue (with dummy node) and one publication
// record per thread.
func NewFCQueue(x machine.API, threads int) *FCQueue {
	q := &FCQueue{combiner: combiner{lock: x.Alloc(8)}, head: x.Alloc(8), tail: x.Alloc(8)}
	dummy := x.Alloc(qSize)
	x.Store(q.head, uint64(dummy))
	x.Store(q.tail, uint64(dummy))
	q.start(x, threads, q.step)
	return q
}

// step is the sequential queue's apply.
func (q *FCQueue) step(x machine.API, op uint64, r mem.Addr) {
	if op == fcPush { // enqueue
		node := x.Alloc(qSize)
		x.Store(node+qValue, x.Load(r+fcArg))
		t := mem.Addr(x.Load(q.tail))
		x.Store(t+qNext, uint64(node))
		x.Store(q.tail, uint64(node))
		return
	}
	h := mem.Addr(x.Load(q.head))
	n := x.Load(h + qNext)
	if n == 0 {
		x.Store(r+fcRetOK, 0)
		return
	}
	x.Store(r+fcRet, x.Load(mem.Addr(n)+qValue))
	x.Store(r+fcRetOK, 1)
	x.Store(q.head, n)
}
