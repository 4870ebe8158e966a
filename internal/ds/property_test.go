package ds

import (
	"testing"
	"testing/quick"

	"leaserelease/internal/machine"
)

// TestLCRQVsSliceModel property-checks the ring queue against a slice
// model, ring boundary crossings and segment closures included.
func TestLCRQVsSliceModel(t *testing.T) { forEachContainer(t, sliceModel, "lcrq") }

// TestHarrisListVsMapModel property-checks the lock-free list against a
// map model over random single-threaded op sequences.
func TestHarrisListVsMapModel(t *testing.T) {
	type op struct {
		Kind byte
		Key  uint8
	}
	f := func(ops []op) bool {
		if len(ops) > 250 {
			ops = ops[:250]
		}
		m := machine.New(machine.DefaultConfig(1))
		l := NewHarrisList(m.Direct(), 0)
		ok := true
		m.Spawn(0, func(c *machine.Ctx) {
			model := map[uint64]bool{}
			for _, o := range ops {
				k := uint64(o.Key%32) + 1
				switch o.Kind % 3 {
				case 0:
					if l.Insert(c, k) == model[k] {
						ok = false
						return
					}
					model[k] = true
				case 1:
					if l.Remove(c, k) != model[k] {
						ok = false
						return
					}
					delete(model, k)
				default:
					if l.Contains(c, k) != model[k] {
						ok = false
						return
					}
				}
			}
			if l.Len(c) != len(model) {
				ok = false
			}
		})
		if err := m.Drain(); err != nil {
			return false
		}
		if err := l.CheckInvariants(m.Direct()); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestStackQueuePairProperty: a stack reverses what it is given and a
// queue keeps its order, over arbitrary op sequences.
func TestStackQueuePairProperty(t *testing.T) {
	forEachContainer(t, sliceModel, "stack", "queue")
}
