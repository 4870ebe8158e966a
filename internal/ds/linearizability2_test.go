package ds

import (
	"testing"

	"leaserelease/internal/linearize"
	"leaserelease/internal/machine"
)

// TestEliminationStackLinearizable: eliminated push/pop pairs must still
// appear as a legal LIFO order in real histories.
func TestEliminationStackLinearizable(t *testing.T) {
	m := newM(4)
	s := NewEliminationStack(m.Direct(), 2)
	s.SpinCycles = 600
	rec := &linearize.Recorder{}
	for i := 0; i < 4; i++ {
		i := i
		m.Spawn(0, func(c *machine.Ctx) {
			for n := 0; n < 4; n++ {
				if i%2 == 0 {
					v := tag(i, n)
					inv := c.Now()
					s.Push(c, v)
					rec.Record(i, inv, c.Now(), "push", v, 0, true)
				} else {
					inv := c.Now()
					v, ok := s.Pop(c)
					rec.Record(i, inv, c.Now(), "pop", 0, v, ok)
				}
			}
		})
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if !linearize.Check(rec.Ops, linearize.StackModel()) {
		t.Fatalf("elimination stack history not linearizable:\n%v", rec.Ops)
	}
}

// TestFCStackLinearizable: combined operations must appear as a legal
// LIFO order in real histories.
func TestFCStackLinearizable(t *testing.T) {
	m := newM(4)
	s := NewFCStack(m.Direct(), 4)
	rec := &linearize.Recorder{}
	for i := 0; i < 4; i++ {
		i := i
		m.Spawn(0, func(c *machine.Ctx) {
			for n := 0; n < 4; n++ {
				if c.Rand().Intn(2) == 0 {
					v := tag(i, n)
					inv := c.Now()
					s.Push(c, i, v)
					rec.Record(i, inv, c.Now(), "push", v, 0, true)
				} else {
					inv := c.Now()
					v, ok := s.Pop(c, i)
					rec.Record(i, inv, c.Now(), "pop", 0, v, ok)
				}
				c.Work(c.Rand().Uint64n(64))
			}
		})
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if !linearize.Check(rec.Ops, linearize.StackModel()) {
		t.Fatalf("flat-combining stack history not linearizable:\n%v", rec.Ops)
	}
}
