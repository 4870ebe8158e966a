package ds

import (
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
)

// LCRQ is a simplified Morrison–Afek LCRQ [29] — the "fast concurrent
// queue for x86" the paper cites among architecture-optimized queue
// designs. A linked list of CRQ ring segments; within a segment, enqueue
// and dequeue positions come from fetch&add, so the hot counters never
// suffer CAS retry storms.
//
// Adaptation to the simulated ISA: the original updates (value, index)
// cell pairs with a double-width CAS; our words are 64-bit, so a cell
// packs [safe:1 | idx:32 | val:31] into one word. Values must therefore
// lie in [1, 2^31-1] and a segment supports 2^32 operations — ample for
// simulation workloads.
type LCRQ struct {
	first mem.Addr // pointer cell -> current head CRQ
	last  mem.Addr // pointer cell -> current tail CRQ
	ring  int      // cells per CRQ segment
}

// CRQ segment layout: [head, tail, next, cells[0..R-1]].
const (
	crqHead  = 0
	crqTail  = 8
	crqNext  = 16
	crqCells = 24

	crqClosed = uint64(1) << 63

	cellValBits = 31
	cellValMask = (uint64(1) << cellValBits) - 1
	cellIdxMask = (uint64(1) << 32) - 1
)

func packCell(safe uint64, idx uint64, val uint64) uint64 {
	return safe<<63 | (idx&cellIdxMask)<<cellValBits | (val & cellValMask)
}

func cellSafe(w uint64) uint64 { return w >> 63 }
func cellIdx(w uint64) uint64  { return (w >> cellValBits) & cellIdxMask }
func cellVal(w uint64) uint64  { return w & cellValMask }

// NewLCRQ allocates a queue with ring-sized segments (power of two
// recommended).
func NewLCRQ(x machine.API, ring int) *LCRQ {
	q := &LCRQ{first: x.Alloc(8), last: x.Alloc(8), ring: ring}
	seg := q.newCRQ(x)
	x.Store(q.first, uint64(seg))
	x.Store(q.last, uint64(seg))
	return q
}

// newCRQ allocates an empty segment: every cell is (safe=1, idx=i, val=0).
func (q *LCRQ) newCRQ(x machine.API) mem.Addr {
	seg := x.Alloc(uint64(crqCells + 8*q.ring))
	for i := 0; i < q.ring; i++ {
		x.Store(seg+crqCells+mem.Addr(8*i), packCell(1, uint64(i), 0))
	}
	return seg
}

func (q *LCRQ) cell(seg mem.Addr, idx uint64) mem.Addr {
	return seg + crqCells + mem.Addr(8*(idx%uint64(q.ring)))
}

// crqEnqueue attempts to enqueue v into segment seg; false means the
// segment is (now) closed.
func (q *LCRQ) crqEnqueue(x machine.API, seg mem.Addr, v uint64) bool {
	for attempts := 0; ; attempts++ {
		t := x.FetchAdd(seg+crqTail, 1)
		if t&crqClosed != 0 {
			return false
		}
		c := q.cell(seg, t)
		w := x.Load(c)
		if cellVal(w) == 0 && cellIdx(w) <= t &&
			(cellSafe(w) == 1 || x.Load(seg+crqHead) <= t) {
			if x.CAS(c, w, packCell(1, t, v)) {
				return true
			}
		}
		// Transition failed. Close when the ring looks full or we keep
		// starving (livelock guard from the original design).
		h := x.Load(seg + crqHead)
		if t >= h+uint64(q.ring) || attempts >= 8*q.ring {
			q.closeCRQ(x, seg)
			return false
		}
	}
}

func (q *LCRQ) closeCRQ(x machine.API, seg mem.Addr) {
	for {
		t := x.Load(seg + crqTail)
		if t&crqClosed != 0 {
			return
		}
		if x.CAS(seg+crqTail, t, t|crqClosed) {
			return
		}
	}
}

// crqDequeue attempts to dequeue from segment seg; ok=false means the
// segment is empty (possibly transiently — the caller checks closure).
func (q *LCRQ) crqDequeue(x machine.API, seg mem.Addr) (uint64, bool) {
	for {
		h := x.FetchAdd(seg+crqHead, 1)
		c := q.cell(seg, h)
		for {
			w := x.Load(c)
			val := cellVal(w)
			idx := cellIdx(w)
			if val != 0 {
				if idx == h {
					// Dequeue transition: empty the cell for round h+R.
					if x.CAS(c, w, packCell(cellSafe(w), h+uint64(q.ring), 0)) {
						return val, true
					}
					continue
				}
				// A value from another round: mark unsafe so its
				// enqueuer cannot be wrongly matched later.
				if x.CAS(c, w, packCell(0, idx, val)) {
					break
				}
				continue
			}
			// Empty cell: advance it past our round.
			if idx <= h {
				if x.CAS(c, w, packCell(cellSafe(w), h+uint64(q.ring), 0)) {
					break
				}
				continue
			}
			break
		}
		// Is the segment drained up to our position?
		t := x.Load(seg+crqTail) &^ crqClosed
		if t <= h+1 {
			q.fixState(x, seg)
			return 0, false
		}
	}
}

// fixState repairs head > tail after overshooting dequeues.
func (q *LCRQ) fixState(x machine.API, seg mem.Addr) {
	for {
		h := x.Load(seg + crqHead)
		tw := x.Load(seg + crqTail)
		t := tw &^ crqClosed
		if t >= h {
			return
		}
		if x.CAS(seg+crqTail, tw, h|(tw&crqClosed)) {
			return
		}
	}
}

// Put appends v (1 <= v < 2^31).
func (q *LCRQ) Put(x machine.API, _ int, v uint64) {
	if v == 0 || v > cellValMask {
		panic("lcrq: value out of range [1, 2^31-1]")
	}
	for {
		seg := mem.Addr(x.Load(q.last))
		if n := x.Load(seg + crqNext); n != 0 {
			x.CAS(q.last, uint64(seg), n) // help swing last
			continue
		}
		if q.crqEnqueue(x, seg, v) {
			return
		}
		// Segment closed: append a fresh one.
		nseg := q.newCRQ(x)
		x.Store(q.cell(nseg, 0), packCell(1, 0, v))
		x.Store(nseg+crqTail, 1)
		if x.CAS(seg+crqNext, 0, uint64(nseg)) {
			x.CAS(q.last, uint64(seg), uint64(nseg))
			return
		}
		// Someone else appended; retry into their segment.
	}
}

// Take removes the oldest value; ok=false when the queue is empty.
func (q *LCRQ) Take(x machine.API, _ int) (uint64, bool) {
	for {
		seg := mem.Addr(x.Load(q.first))
		if v, ok := q.crqDequeue(x, seg); ok {
			return v, true
		}
		// Segment empty: if it is closed and has a successor, advance.
		if x.Load(seg+crqTail)&crqClosed == 0 {
			return 0, false // open and empty: queue is empty
		}
		n := x.Load(seg + crqNext)
		if n == 0 {
			return 0, false // closed, no successor yet
		}
		// An enqueue may have landed between the empty crqDequeue above and
		// the close. None can land after it, so one more drain finds it.
		if v, ok := q.crqDequeue(x, seg); ok {
			return v, true
		}
		x.CAS(q.first, uint64(seg), n)
	}
}
