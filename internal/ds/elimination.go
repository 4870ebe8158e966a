package ds

import (
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
)

// EliminationStack is the elimination-backoff stack of Shavit–Touitou [39]
// (in the Hendler–Shavit–Yerushalmi style): a Treiber stack whose threads,
// upon CAS failure, back off into an elimination array where a concurrent
// push and pop can cancel each other without touching the hotspot. It is
// the classic software contention mitigation the paper compares leases
// against (§2 "elimination").
type EliminationStack struct {
	head  mem.Addr
	slots []mem.Addr
	// Eliminations counts operations completed through the array.
	Eliminations uint64
}

// Exchange-offer record layout (one line per offer, never reused).
const (
	oKind   = 0 // 1 = push, 2 = pop
	oValue  = 8
	oDone   = 16
	oResult = 24
	oSize   = 32

	kindPush = 1
	kindPop  = 2

	// elimSpin is how long an offer waits in a slot before retracting.
	elimSpin = 400
)

// NewEliminationStack allocates the stack with `width` elimination slots.
func NewEliminationStack(x machine.API, width int) *EliminationStack {
	s := &EliminationStack{head: x.Alloc(8)}
	for i := 0; i < width; i++ {
		s.slots = append(s.slots, x.Alloc(8))
	}
	return s
}

// pushAttempt performs one Treiber push attempt.
func (s *EliminationStack) pushAttempt(x machine.API, node mem.Addr) bool {
	h := x.Load(s.head)
	x.Store(node+stkNext, h)
	return x.CAS(s.head, h, uint64(node))
}

// popAttempt performs one Treiber pop attempt; empty=true ends the op.
func (s *EliminationStack) popAttempt(x machine.API) (v uint64, ok, empty bool) {
	h := x.Load(s.head)
	if h == 0 {
		return 0, false, true
	}
	next := x.Load(mem.Addr(h) + stkNext)
	val := x.Load(mem.Addr(h) + stkValue)
	if x.CAS(s.head, h, next) {
		return val, true, false
	}
	return 0, false, false
}

// Put pushes v, eliminating against a concurrent pop when contended.
func (s *EliminationStack) Put(x machine.API, _ int, v uint64) {
	node := x.Alloc(stkSize)
	x.Store(node+stkValue, v)
	for {
		if s.pushAttempt(x, node) {
			return
		}
		if s.eliminatePush(x, v) {
			s.Eliminations++
			return
		}
	}
}

// Take pops the top value, eliminating against a concurrent push when
// contended; ok=false on an empty stack.
func (s *EliminationStack) Take(x machine.API, _ int) (uint64, bool) {
	for {
		v, ok, empty := s.popAttempt(x)
		if ok {
			return v, true
		}
		if empty {
			return 0, false
		}
		if v, ok := s.eliminatePop(x); ok {
			s.Eliminations++
			return v, true
		}
	}
}

// eliminatePush tries to hand v to a concurrent pop via a random slot.
func (s *EliminationStack) eliminatePush(x machine.API, v uint64) bool {
	slot := s.slots[x.Rand().Intn(len(s.slots))]
	cur := x.Load(slot)
	if cur == 0 {
		// Park a push offer and wait to be taken.
		offer := x.Alloc(oSize)
		x.Store(offer+oKind, kindPush)
		x.Store(offer+oValue, v)
		if !x.CAS(slot, 0, uint64(offer)) {
			return false
		}
		return s.awaitOrRetract(x, slot, offer)
	}
	other := mem.Addr(cur)
	if x.Load(other+oKind) != kindPop {
		return false
	}
	// Claim the waiting pop and hand it our value.
	if !x.CAS(slot, cur, 0) {
		return false
	}
	x.Store(other+oResult, v)
	x.Store(other+oDone, 1)
	return true
}

// eliminatePop tries to take a value from a concurrent push via a slot.
func (s *EliminationStack) eliminatePop(x machine.API) (uint64, bool) {
	slot := s.slots[x.Rand().Intn(len(s.slots))]
	cur := x.Load(slot)
	if cur == 0 {
		offer := x.Alloc(oSize)
		x.Store(offer+oKind, kindPop)
		if !x.CAS(slot, 0, uint64(offer)) {
			return 0, false
		}
		if !s.awaitOrRetract(x, slot, offer) {
			return 0, false
		}
		return x.Load(offer + oResult), true
	}
	other := mem.Addr(cur)
	if x.Load(other+oKind) != kindPush {
		return 0, false
	}
	if !x.CAS(slot, cur, 0) {
		return 0, false
	}
	v := x.Load(other + oValue)
	x.Store(other+oDone, 1)
	return v, true
}

// awaitOrRetract waits for the parked offer to be matched; on timeout it
// retracts the offer, racing a late matcher.
func (s *EliminationStack) awaitOrRetract(x machine.API, slot, offer mem.Addr) bool {
	deadline := x.Now() + elimSpin
	for x.Now() < deadline {
		if x.Load(offer+oDone) == 1 {
			return true
		}
		x.Work(16)
	}
	if x.CAS(slot, uint64(offer), 0) {
		return false // retracted unmatched
	}
	// A matcher claimed the offer concurrently; wait for completion.
	done := offer + oDone
	for u := x.Load(done); u == 0; u = x.Spin(done, u, 4) {
	}
	return true
}
