// Package ds implements the paper's data structure suite on simulated
// memory: the Treiber stack, the Michael–Scott queue, skiplist-based
// priority queues (Lotan–Shavit), the Harris lock-free list, a lazy
// lock-based skiplist set, a chained hash table, a leaf-oriented BST, and
// the §5 cheap-snapshot primitive — each with the paper's lease placements
// as options.
//
// All structures operate on mem.Addr words through a machine.API, so the
// same code runs both untimed (setup, via machine.Direct) and fully timed
// on simulated cores (via machine.Ctx). Simulated pointers are word values
// holding addresses; 0 is NULL. Nodes are cache-line aligned so that no
// two nodes (or a node and a sentinel pointer) falsely share a line — the
// §7 requirement for correct lease behaviour.
package ds

import (
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
)

// Backoff configures truncated exponential backoff between retries of a
// failed atomic update. Zero value = no backoff.
type Backoff struct {
	Min uint64 // initial pause in cycles (0 disables backoff)
	Max uint64 // pause cap
}

// wait burns the current pause and doubles it up to Max, with a ±25%
// deterministic jitter from the thread's RNG.
func (b *Backoff) wait(x machine.API, cur *uint64) {
	if b.Min == 0 {
		return
	}
	if *cur == 0 {
		*cur = b.Min
	}
	p := *cur
	jitter := p / 4
	if jitter > 0 {
		p = p - jitter + x.Rand().Uint64n(2*jitter)
	}
	x.Work(p)
	if *cur *= 2; *cur > b.Max {
		*cur = b.Max
	}
}

// StackOptions selects the Treiber stack variant.
type StackOptions struct {
	// Lease, when nonzero, leases the head pointer for the read-CAS
	// window (Figure 1) with the given lease time.
	Lease uint64
	// Backoff adds exponential backoff on CAS failure (the classic
	// software mitigation the paper compares against).
	Backoff Backoff
}

// Stack is Treiber's lock-free stack [41].
type Stack struct {
	head mem.Addr
	opt  StackOptions
}

// Stack node layout (one cache line per node).
const (
	stkNext  = 0
	stkValue = 8
	stkSize  = 16
)

// NewStack allocates an empty stack.
func NewStack(x machine.API, opt StackOptions) *Stack {
	return &Stack{head: x.Alloc(8), opt: opt}
}

// Push pushes v, following Figure 1's lease placement: lease the head for
// the read-CAS interval so the CAS cannot fail while the lease holds.
func (s *Stack) Push(x machine.API, v uint64) {
	node := x.Alloc(stkSize)
	x.Store(node+stkValue, v)
	var pause uint64
	for {
		if s.opt.Lease > 0 {
			x.Lease(s.head, s.opt.Lease)
		}
		h := x.Load(s.head)
		x.Store(node+stkNext, h)
		ok := x.CAS(s.head, h, uint64(node))
		if s.opt.Lease > 0 {
			x.Release(s.head)
		}
		if ok {
			return
		}
		s.opt.Backoff.wait(x, &pause)
	}
}

// Pop removes and returns the top value; ok=false on an empty stack.
func (s *Stack) Pop(x machine.API) (v uint64, ok bool) {
	var pause uint64
	for {
		if s.opt.Lease > 0 {
			x.Lease(s.head, s.opt.Lease)
		}
		h := x.Load(s.head)
		if h == 0 {
			if s.opt.Lease > 0 {
				x.Release(s.head)
			}
			return 0, false
		}
		next := x.Load(mem.Addr(h) + stkNext)
		val := x.Load(mem.Addr(h) + stkValue)
		okCAS := x.CAS(s.head, h, next)
		if s.opt.Lease > 0 {
			x.Release(s.head)
		}
		if okCAS {
			return val, true
		}
		s.opt.Backoff.wait(x, &pause)
	}
}

// Put is Push, as a Container.
func (s *Stack) Put(x machine.API, _ int, v uint64) { s.Push(x, v) }

// Take is Pop, as a Container.
func (s *Stack) Take(x machine.API, _ int) (uint64, bool) { return s.Pop(x) }
