package sim

import "math/bits"

// The near tier's shape. A census of the workloads in benchmarks/ put every
// event except lease-expiry timers and a few long think-time wakes less than
// 256 cycles ahead of the clock at its push, 83–99 % of them less than 32;
// a push finds fewer than four events in its bucket on average, and 0–4 %
// find it full
// (EXPERIMENTS.md "Events in buckets").
const (
	nearSpan  = 256 // cycles ahead of the clock the near tier covers; a power of two
	bucketCap = 16  // events a bucket holds before the rest go to the heap
)

// eventQueue holds every queued event, in two tiers. The near tier is
// nearSpan buckets of one cycle each, a fixed array that never grows: an
// event less than nearSpan cycles ahead goes to bucket at % nearSpan, kept
// sorted by the rest of the canonical key (an event scheduled for the
// executing cycle joins the bucket that is draining). The far tier is the
// eventHeap, which takes whatever lies further ahead or finds its bucket
// full.
//
// Which tier an event sits in never decides when it pops: min compares the
// near tier's first event with the heap's by event.before, so the pop order
// is the order of one heap holding them all. A bucket holds one cycle only.
// An event enters the near tier with at-now < nearSpan, and the clock never
// passes a queued event (it moves to a popped event's cycle, or to one no
// later than the earliest queued), so every near event lies in
// [now, now+nearSpan) and two of different cycles cannot share a residue.
type eventQueue struct {
	far eventHeap

	nearN int  // events in the near tier
	minAt Time // cycle of the earliest occupied bucket; valid while nearN > 0

	occ  [nearSpan / 64]uint64 // bit s set: bucket s holds events
	cnt  [nearSpan]uint8
	near [nearSpan][bucketCap]event // bucket s, sorted so that [cnt[s]-1] pops first
}

func (q *eventQueue) len() int { return len(q.far) + q.nearN }

// push queues the event keyed (at, dom, src, seq) that runs fn or wakes p,
// now being the engine clock (at >= now). full reports a near event that
// found its bucket full and went to the heap. The fields are stored straight
// into the slot the event ends up in: an event built on the stack and copied
// in would be read back with wider loads than the stores that wrote it, which
// stalls store forwarding (DESIGN.md §2.1).
func (q *eventQueue) push(at Time, seq uint64, dom, src uint32, fn func(), p *Proc, now Time) (full bool) {
	if at-now < nearSpan {
		s := at % nearSpan
		n := q.cnt[s]
		if n < bucketCap {
			b := &q.near[s]
			i := n
			for ; i > 0 && b[i-1].precedes(at, dom, src, seq); i-- {
				b[i] = b[i-1]
			}
			b[i] = event{at: at, seq: seq, dom: dom, src: src, fn: fn, p: p}
			q.cnt[s] = n + 1
			q.occ[s/64] |= 1 << (s % 64)
			if q.nearN == 0 || at < q.minAt {
				q.minAt = at
			}
			q.nearN++
			return false
		}
		full = true
	}
	q.far.push(at, seq, dom, src, fn, p)
	return full
}

// nextAt returns the cycle of the earliest queued event, MaxTime if there is
// none.
func (q *eventQueue) nextAt() Time {
	at := MaxTime
	if q.nearN > 0 {
		at = q.minAt
	}
	if len(q.far) > 0 && q.far[0].at < at {
		at = q.far[0].at
	}
	return at
}

// foreignBy reports whether an event that another domain scheduled onto
// domain d is queued at or before cycle t, now being the engine clock: in the
// near tier's buckets of the cycles from now to t, or in the heap, which
// holds the far events and whatever overflowed a full bucket.
func (q *eventQueue) foreignBy(d uint32, t, now Time) bool {
	if q.nearN > 0 {
		for c := q.minAt; c <= min(t, now+nearSpan-1); c++ {
			s := c % nearSpan
			for i := range q.cnt[s] {
				if ev := &q.near[s][i]; ev.dom == d && ev.src != d {
					return true
				}
			}
		}
	}
	return len(q.far) > 0 && q.far[0].at <= t && q.far.foreignBy(0, d, t)
}

// min returns the event that pops next and the tier it sits in, nil if the
// queue is empty. The pointer is valid until the next push or pop.
func (q *eventQueue) min() (ev *event, far bool) {
	if q.nearN > 0 {
		s := q.minAt % nearSpan
		ev = &q.near[s][q.cnt[s]-1]
	}
	if len(q.far) > 0 && (ev == nil || q.far[0].before(ev)) {
		return &q.far[0], true
	}
	return ev, false
}

// pop removes the event min returned; far is min's second result. Whoever
// needs the event reads it through min's pointer first.
func (q *eventQueue) pop(far bool) {
	if far {
		q.far.pop()
		return
	}
	s := q.minAt % nearSpan
	n := q.cnt[s] - 1
	slot := &q.near[s][n]
	slot.fn, slot.p = nil, nil // drop the references so they can be collected
	q.cnt[s] = n
	q.nearN--
	if n == 0 {
		q.occ[s/64] &^= 1 << (s % 64)
		if q.nearN > 0 {
			q.minAt += q.gap(uint(s))
		}
	}
}

// gap returns the distance in cycles from bucket s, just emptied, to the
// next occupied bucket going round the array. Near events lie in one window
// of nearSpan cycles that starts no later than bucket s's cycle, so the
// distance round the array is the distance in time.
func (q *eventQueue) gap(s uint) Time {
	w, b := s/64, s%64
	if m := q.occ[w] >> b >> 1; m != 0 {
		return Time(bits.TrailingZeros64(m)) + 1
	}
	d := 64 - b
	for range q.occ {
		w = (w + 1) % uint(len(q.occ))
		if m := q.occ[w]; m != 0 {
			return Time(d) + Time(bits.TrailingZeros64(m))
		}
		d += 64
	}
	panic("sim: near tier counts events but no bucket is occupied")
}

// eventHeap is an inlined 4-ary min-heap of events: the far tier of the
// eventQueue, and the order the whole queue keeps. Compared to
// container/heap it avoids the interface{} boxing allocation on every push
// and the indirect Less/Swap calls on every sift; the wider fan-out halves
// the tree depth, trading cheap sibling compares (same cache line) for
// expensive level hops.
type eventHeap []event

// push sifts a hole up from the end and stores the event in the slot where
// it stops. Keys are unique (a source's sequence never repeats), so an event
// moves above every parent that does not pop before it.
func (h *eventHeap) push(at Time, seq uint64, dom, src uint32, fn func(), p *Proc) {
	s := append(*h, event{})
	i := len(s) - 1
	for i > 0 {
		par := (i - 1) >> 2
		if s[par].precedes(at, dom, src, seq) {
			break
		}
		s[i] = s[par]
		i = par
	}
	s[i] = event{at: at, seq: seq, dom: dom, src: src, fn: fn, p: p}
	*h = s
}

// foreignBy reports whether the subtree rooted at slot i holds an event for
// domain d from another domain at or before cycle t. No event in a subtree
// pops before its root, so one whose root is later than t holds none.
func (h eventHeap) foreignBy(i int, d uint32, t Time) bool {
	if i >= len(h) || h[i].at > t {
		return false
	}
	if h[i].dom == d && h[i].src != d {
		return true
	}
	for c := i<<2 + 1; c <= i<<2+4; c++ {
		if h.foreignBy(c, d, t) {
			return true
		}
	}
	return false
}

// pop removes the first event.
func (h *eventHeap) pop() {
	s := *h
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
}
