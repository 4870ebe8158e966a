package main

import "time"

// The reference host is a few cores of a shared machine: the same cell of
// the same binary takes 1.6 to 2.6 s depending on what the neighbours do,
// and the level holds for seconds to minutes, so no statistic over one
// run's wall-clock times removes it (../README.md, "Bounds, from data").
// Host time is therefore reported in reference seconds: every timed
// interval is followed by a fixed kernel of the benchmark's own, and the
// interval's wall time is scaled by how fast the kernel ran just before
// and just after it. A reference second is a wall second on a host that
// runs the kernel at refStepsPerSecond, which is about what the reference
// host does in a quiet hour (host.ref_speed reports reference seconds per
// wall second). The measure phase is cut into slices, the kernel after each
// (cell.go), and booked as its median slice times their number.
//
// The kernel is what the simulator's inner loop is made of and nothing of
// the simulator itself: a binary heap of pending events keyed (cycle, seq),
// and one word of a random 64-byte line per event. It allocates nothing, so
// it adds nothing to the allocation counts and owes nothing to the
// collector, and it lives here, where a change that claims a gain may not
// reach it.

const (
	refEvents = 64      // pending events: the depth of the engine's heap with 64 threads
	refLines  = 1 << 14 // 64-byte lines, 1 MiB: past the first-level cache and TLB, as the simulator's state is
	refSteps  = 100_000 // events per call, about 6 ms (the smoke test makes fewer)
	// refStepsPerSecond only fixes the scale. Do not change it, the kernel
	// or refSteps: every host-time figure moves with them.
	refStepsPerSecond = 16e6
)

type refEvent struct{ at, seq uint64 }

func (a refEvent) before(b refEvent) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

// refClock runs the reference kernel and remembers its last speed.
type refClock struct {
	heap  []refEvent
	lines [][8]uint64
	x     uint64
	sink  uint64
	steps int     // events per call
	speed float64 // kernel steps per wall second at the last call
}

func newRefClock(steps int) *refClock {
	c := &refClock{heap: make([]refEvent, 0, refEvents+1), lines: make([][8]uint64, refLines), x: 2463534242, steps: steps}
	for i := uint64(0); i < refEvents; i++ {
		c.heap = append(c.heap, refEvent{i, i})
	}
	c.tick() // touch every page before the first timed call
	c.tick()
	return c
}

// tick runs the kernel once and returns its speed in steps per wall second.
func (c *refClock) tick() float64 {
	h, x := c.heap, c.x
	t0 := time.Now()
	for k := 0; k < c.steps; k++ {
		// Pop the earliest event.
		e := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			l := 2*i + 1
			if l >= len(h) {
				break
			}
			if r := l + 1; r < len(h) && h[r].before(h[l]) {
				l = r
			}
			if !h[l].before(h[i]) {
				break
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
		// Handle it: one word of a random line.
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.lines[x%refLines][x%8] += e.at
		// Schedule its successor up to 200 cycles on.
		h = append(h, refEvent{e.at + x%200, e.seq + refEvents})
		for j := len(h) - 1; j > 0; {
			p := (j - 1) / 2
			if !h[j].before(h[p]) {
				break
			}
			h[j], h[p] = h[p], h[j]
			j = p
		}
	}
	d := time.Since(t0)
	c.heap, c.x = h, x
	c.sink += h[0].at
	c.speed = float64(c.steps) / d.Seconds()
	return c.speed
}

// refSeconds converts the wall time of an interval to reference seconds,
// given the kernel's speed just before and just after it.
func refSeconds(wall time.Duration, before, after float64) float64 {
	return wall.Seconds() * (before + after) / 2 / refStepsPerSecond
}
