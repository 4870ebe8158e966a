package ds

import (
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
)

// combiner is flat combining after Hendler, Incze, Shavit & Tzafrir [18],
// the §2 "combining" technique: threads publish operations in per-thread
// records; whoever wins the combiner lock applies everyone's pending
// operations to the sequential structure (apply, all FCStack and FCQueue
// differ in), so the hotspot is touched by one thread at a time. Its Put and
// Take are the Container operations of both.
type combiner struct {
	lock    mem.Addr // combiner try-lock
	records []mem.Addr
	// apply performs record r's pending op, reading and replying through r.
	apply func(x machine.API, op uint64, r mem.Addr)
	// passes counts combining passes (host-side; the tests compare it with
	// the operations served).
	passes uint64
}

// Publication record layout (one line per thread).
const (
	fcOp    = 0 // 0 = none, 1 = put pending, 2 = take pending
	fcArg   = 8
	fcDone  = 16 // set by the combiner
	fcRet   = 24
	fcRetOK = 32
	fcSize  = 40
	fcNone  = 0
	fcPush  = 1
	fcPop   = 2

	// fcSpinRounds bounds how long a waiting thread spins before trying to
	// become the combiner itself.
	fcSpinRounds = 32
)

// start sets the structure's apply and allocates one publication record per
// thread, after the lock and the structure's own words.
func (fc *combiner) start(x machine.API, threads int, apply func(x machine.API, op uint64, r mem.Addr)) {
	fc.apply = apply
	for i := 0; i < threads; i++ {
		fc.records = append(fc.records, x.Alloc(fcSize))
	}
}

// Put puts v on behalf of thread tid.
func (fc *combiner) Put(x machine.API, tid int, v uint64) { fc.run(x, tid, fcPush, v) }

// Take takes a value on behalf of thread tid; ok=false when empty.
func (fc *combiner) Take(x machine.API, tid int) (uint64, bool) {
	fc.run(x, tid, fcPop, 0)
	r := fc.records[tid]
	v, ok := x.Load(r+fcRet), x.Load(r+fcRetOK) == 1
	if !ok {
		return 0, false // fcRet still holds an earlier take's value
	}
	return v, true
}

// run publishes the op for thread tid and waits for a combiner (possibly
// itself) to apply it.
func (fc *combiner) run(x machine.API, tid int, op, arg uint64) {
	r := fc.records[tid]
	x.Store(r+fcDone, 0)
	x.Store(r+fcArg, arg)
	x.Store(r+fcOp, op) // publish last
	for {
		// Spin a little waiting for a passing combiner.
		for i := 0; i < fcSpinRounds; i++ {
			if x.Load(r+fcDone) == 1 {
				return
			}
			x.Work(16)
		}
		// Try to become the combiner.
		if x.Load(fc.lock) == 0 && x.Swap(fc.lock, 1) == 0 {
			fc.combine(x)
			x.Store(fc.lock, 0)
			if x.Load(r+fcDone) == 1 {
				return
			}
			// The record republished after our own scan: loop again.
		}
	}
}

// combine applies every pending published op.
func (fc *combiner) combine(x machine.API) {
	fc.passes++
	for _, r := range fc.records {
		op := x.Load(r + fcOp)
		if op == fcNone || x.Load(r+fcDone) == 1 {
			continue
		}
		fc.apply(x, op, r)
		x.Store(r+fcOp, fcNone)
		x.Store(r+fcDone, 1)
	}
}

// FCStack is a flat-combining stack [18] over a sequential linked stack.
type FCStack struct {
	combiner
	head mem.Addr // sequential stack head (combiner-only)
}

// NewFCStack allocates the stack with one publication record per thread.
func NewFCStack(x machine.API, threads int) *FCStack {
	s := &FCStack{combiner: combiner{lock: x.Alloc(8)}, head: x.Alloc(8)}
	s.start(x, threads, s.step)
	return s
}

// step is the sequential stack's apply.
func (s *FCStack) step(x machine.API, op uint64, r mem.Addr) {
	if op == fcPush {
		node := x.Alloc(stkSize)
		x.Store(node+stkValue, x.Load(r+fcArg))
		x.Store(node+stkNext, x.Load(s.head))
		x.Store(s.head, uint64(node))
		return
	}
	h := x.Load(s.head)
	if h == 0 {
		x.Store(r+fcRetOK, 0)
		return
	}
	x.Store(r+fcRet, x.Load(mem.Addr(h)+stkValue))
	x.Store(r+fcRetOK, 1)
	x.Store(s.head, x.Load(mem.Addr(h)+stkNext))
}
