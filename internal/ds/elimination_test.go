package ds

import (
	"testing"

	"leaserelease/internal/machine"
)

func TestEliminationStackSequential(t *testing.T) {
	forEachContainer(t, sliceModel, "elimination")
}

// TestEliminationStackConservation: under contention, eliminated pairs
// included, every pushed value is popped exactly once or remains.
func TestEliminationStackConservation(t *testing.T) { forEachContainer(t, conservation, "elimination") }

// TestEliminationStackLinearizable: eliminated push/pop pairs must still
// appear as a legal LIFO order in real histories.
func TestEliminationStackLinearizable(t *testing.T) { forEachContainer(t, linearizable, "elimination") }

// TestEliminationHappens: under symmetric contention some operations must
// complete through the array rather than the hotspot, at the default spin.
func TestEliminationHappens(t *testing.T) {
	const cores = 8
	m := newM(cores)
	s := NewEliminationStack(m.Direct(), 4)
	var pushes, pops uint64
	for i := 0; i < cores; i++ {
		i := i
		m.Spawn(0, func(c *machine.Ctx) {
			for {
				if i%2 == 0 {
					s.Put(c, i, 1)
					pushes++
				} else {
					if _, ok := s.Take(c, i); ok {
						pops++
					}
				}
			}
		})
	}
	if err := m.Run(400000); err != nil {
		t.Fatal(err)
	}
	m.Stop()
	if s.Eliminations == 0 {
		t.Fatalf("no eliminations under symmetric 8-way contention (pushes %d, pops %d)",
			pushes, pops)
	}
}
