package leaserelease

import (
	"testing"

	"leaserelease/internal/locks"
)

// TestFacadeQuickstart runs the doc-comment quickstart through the public
// façade only.
func TestFacadeQuickstart(t *testing.T) {
	cfg := DefaultConfig(4)
	m := New(cfg)
	s := NewStack(m.Direct(), StackOptions{Lease: 20000})
	for i := 0; i < 4; i++ {
		m.Spawn(0, func(c *Ctx) {
			for {
				s.Push(c, 1)
				s.Pop(c)
			}
		})
	}
	if err := m.Run(200_000); err != nil {
		t.Fatal(err)
	}
	m.Stop()
	st := m.Stats()
	if st.Leases == 0 || st.VoluntaryReleases == 0 {
		t.Fatalf("lease machinery unused: %+v", st)
	}
	if st.Cycles != 200_000 {
		t.Fatalf("cycles = %d", st.Cycles)
	}
}

func TestFacadeStructures(t *testing.T) {
	m := New(DefaultConfig(2))
	d := m.Direct()

	q := NewQueue(d, QueueOptions{Mode: QueueMultiLease, LeaseTime: 20000})
	hm := NewHashMap(d, 16, 20000)
	sk := NewLFSkipList(d)

	var ok [3]bool
	m.Spawn(0, func(c *Ctx) {
		q.Enqueue(c, 7)
		v, found := q.Dequeue(c)
		ok[0] = found && v == 7

		hm.Put(c, 3, 33)
		got, found := hm.Get(c, 3)
		ok[1] = found && got == 33

		ok[2] = sk.Insert(c, 3) && sk.Contains(c, 3) && sk.Remove(c, 3)
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	for i, o := range ok {
		if !o {
			t.Fatalf("facade structure %d misbehaved", i)
		}
	}
}

func TestFacadeLocksAndBarrier(t *testing.T) {
	m := New(DefaultConfig(4))
	d := m.Direct()
	lk := NewLeasedLock(NewTTSLock(d), 20000)
	bar := locks.NewBarrier(d, 4)
	ctr := d.Alloc(8)
	for i := 0; i < 4; i++ {
		m.Spawn(0, func(c *Ctx) {
			h := bar.NewHandle()
			for n := 0; n < 25; n++ {
				lk.Lock(c)
				c.Store(ctr, c.Load(ctr)+1)
				lk.Unlock(c)
			}
			bar.Wait(c, h)
			if c.Load(ctr) != 100 {
				t.Errorf("after barrier counter = %d, want 100", c.Load(ctr))
			}
		})
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
}
