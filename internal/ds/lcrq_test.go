package ds

import (
	"testing"

	"leaserelease/internal/coherence"
	"leaserelease/internal/machine"
)

func TestLCRQSequentialFIFO(t *testing.T)        { forEachContainer(t, sliceModel, "lcrq") }
func TestLCRQInterleavedSequential(t *testing.T) { forEachContainer(t, sliceModel, "lcrq") }
func TestLCRQConservation(t *testing.T)          { forEachContainer(t, conservation, "lcrq") }
func TestLCRQLinearizable(t *testing.T)          { forEachContainer(t, linearizable, "lcrq") }

// TestLCRQDrainsClosedSegment pins a history in which an enqueue lands in a
// segment after a dequeue found it empty and before the segment closed. A
// Take that then swings first to the successor without draining the closed
// segment again strands that value, and a later take reports empty.
func TestLCRQDrainsClosedSegment(t *testing.T) {
	forEachContainer(t, func(t *testing.T, c containerCase) {
		for _, proto := range coherence.Protocols() {
			linearizableCell(t, c, proto, faultProfiles[1].fc, 30) // preempted
		}
	}, "lcrq")
}

func TestLCRQValueRangePanics(t *testing.T) {
	m := newM(1)
	q := NewLCRQ(m.Direct(), 8)
	m.Spawn(0, func(c *machine.Ctx) {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range value did not panic")
			}
		}()
		q.Put(c, 0, 1<<40)
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
}
