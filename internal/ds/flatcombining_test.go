package ds

import (
	"testing"

	"leaserelease/internal/machine"
)

func TestFCStackSequential(t *testing.T)   { forEachContainer(t, sliceModel, "fcstack") }
func TestFCStackConservation(t *testing.T) { forEachContainer(t, conservation, "fcstack") }

// TestFCStackLinearizable: combined operations must appear as a legal LIFO
// order in real histories.
func TestFCStackLinearizable(t *testing.T) { forEachContainer(t, linearizable, "fcstack") }

func TestFCQueueSequentialFIFO(t *testing.T) { forEachContainer(t, sliceModel, "fcqueue") }
func TestFCQueueConservation(t *testing.T)   { forEachContainer(t, conservation, "fcqueue") }
func TestFCQueueLinearizable(t *testing.T)   { forEachContainer(t, linearizable, "fcqueue") }

// TestFCStackCombinerActuallyCombines: under contention most ops must be
// served by another thread's combining pass, so a pass applies two
// operations or more on average. Both flat-combining structures run it.
func TestFCStackCombinerActuallyCombines(t *testing.T) {
	forEachContainer(t, func(t *testing.T, c containerCase) {
		const cores = 8
		m := newM(cores)
		s := c.new(m.Direct(), cores)
		var ops uint64
		for i := 0; i < cores; i++ {
			m.Spawn(0, func(x *machine.Ctx) {
				for {
					s.Put(x, i, 1)
					s.Take(x, i)
					ops += 2
				}
			})
		}
		if err := m.Run(300000); err != nil {
			t.Fatal(err)
		}
		m.Stop()
		var passes uint64
		switch s := s.(type) {
		case *FCStack:
			passes = s.passes
		case *FCQueue:
			passes = s.passes
		}
		if ops < 100 || ops < 2*passes {
			t.Fatalf("%d ops over %d combining passes", ops, passes)
		}
	}, "fcstack", "fcqueue")
}
