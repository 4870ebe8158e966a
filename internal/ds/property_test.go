package ds

import (
	"testing"
	"testing/quick"

	"leaserelease/internal/machine"
)

// TestLCRQVsSliceModel property-checks the ring queue against a slice
// model over random single-threaded op sequences (ring boundary crossings
// and segment closures included, thanks to the tiny ring).
func TestLCRQVsSliceModel(t *testing.T) {
	f := func(ops []bool) bool {
		if len(ops) > 200 {
			ops = ops[:200]
		}
		m := machine.New(machine.DefaultConfig(1))
		q := NewLCRQ(m.Direct(), 4)
		ok := true
		m.Spawn(0, func(c *machine.Ctx) {
			var model []uint64
			next := uint64(1)
			for _, enq := range ops {
				if enq {
					q.Enqueue(c, next)
					model = append(model, next)
					next++
				} else {
					v, got := q.Dequeue(c)
					if len(model) == 0 {
						if got {
							ok = false
							return
						}
					} else {
						if !got || v != model[0] {
							ok = false
							return
						}
						model = model[1:]
					}
				}
			}
			if q.Len(c) != len(model) {
				ok = false
			}
		})
		if err := m.Drain(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

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

// TestStackQueuePairProperty: pushing a random multiset through a stack
// reverses it; through a queue preserves it — over arbitrary inputs.
func TestStackQueuePairProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) > 100 {
			vals = vals[:100]
		}
		m := machine.New(machine.DefaultConfig(1))
		d := m.Direct()
		s := NewStack(d, StackOptions{})
		q := NewQueue(d, QueueOptions{})
		ok := true
		m.Spawn(0, func(c *machine.Ctx) {
			for _, v := range vals {
				s.Push(c, uint64(v)+1)
				q.Enqueue(c, uint64(v)+1)
			}
			for i := len(vals) - 1; i >= 0; i-- {
				v, got := s.Pop(c)
				if !got || v != uint64(vals[i])+1 {
					ok = false
					return
				}
			}
			for i := 0; i < len(vals); i++ {
				v, got := q.Dequeue(c)
				if !got || v != uint64(vals[i])+1 {
					ok = false
					return
				}
			}
		})
		if err := m.Drain(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
