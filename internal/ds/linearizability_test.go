package ds

import (
	"testing"

	"leaserelease/internal/linearize"
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
)

// These tests record real timestamped operation histories from the
// simulated machine and check them for linearizability against sequential
// models — for every lease variant, since lease bugs (e.g. a CAS window
// "protected" by an already-expired lease) would manifest as
// non-linearizable results.

// collectQueueHistory runs a small concurrent workload and returns the
// completed-op history (64-op cap for the checker).
func collectQueueHistory(t *testing.T, mode QueueLeaseMode, cores, per int) []linearize.Op {
	t.Helper()
	m := newM(cores)
	q := NewQueue(m.Direct(), QueueOptions{Mode: mode, LeaseTime: 20000})
	rec := &linearize.Recorder{}
	for i := 0; i < cores; i++ {
		i := i
		m.Spawn(0, func(c *machine.Ctx) {
			for n := 0; n < per; n++ {
				if c.Rand().Intn(2) == 0 {
					v := tag(i, n)
					inv := c.Now()
					q.Enqueue(c, v)
					rec.Record(i, inv, c.Now(), "enq", v, 0, true)
				} else {
					inv := c.Now()
					v, ok := q.Dequeue(c)
					rec.Record(i, inv, c.Now(), "deq", 0, v, ok)
				}
				c.Work(c.Rand().Uint64n(64))
			}
		})
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	return rec.Ops
}

func TestQueueLinearizable(t *testing.T) {
	for _, mode := range []QueueLeaseMode{QueueNoLease, QueueSingleLease, QueueMultiLease} {
		mode := mode
		for seed := 0; seed < 3; seed++ {
			h := collectQueueHistory(t, mode, 4, 4)
			if len(h) > 64 {
				t.Fatalf("history too long: %d", len(h))
			}
			if !linearize.Check(h, linearize.QueueModel()) {
				t.Fatalf("mode %v: queue history not linearizable:\n%v", mode, h)
			}
		}
	}
}

func TestStackLinearizable(t *testing.T) {
	for _, opt := range []StackOptions{{}, {Lease: 20000}, {Lease: 300}} {
		opt := opt
		m := newM(4)
		s := NewStack(m.Direct(), opt)
		rec := &linearize.Recorder{}
		for i := 0; i < 4; i++ {
			i := i
			m.Spawn(0, func(c *machine.Ctx) {
				for n := 0; n < 4; n++ {
					if c.Rand().Intn(2) == 0 {
						v := tag(i, n)
						inv := c.Now()
						s.Push(c, v)
						rec.Record(i, inv, c.Now(), "push", v, 0, true)
					} else {
						inv := c.Now()
						v, ok := s.Pop(c)
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
			t.Fatalf("opt %+v: stack history not linearizable:\n%v", opt, rec.Ops)
		}
	}
}

// TestBrokenQueueCaughtByChecker sanity-checks the checker's power: a
// deliberately racy queue (plain head/tail indices into an array, no
// atomicity) must produce non-linearizable histories under contention.
func TestBrokenQueueCaughtByChecker(t *testing.T) {
	m := newM(4)
	d := m.Direct()
	headIdx := d.Alloc(8)
	tailIdx := d.Alloc(8)
	buf := d.Alloc(8 * 128)
	rec := &linearize.Recorder{}
	// Phase 1: two racing enqueuers (their read-modify-write of the tail
	// index overlaps, losing elements). Phase 2 (well after): dequeuers
	// drain, eventually reporting empty while the model still holds the
	// lost elements — non-linearizable.
	for i := 0; i < 2; i++ {
		i := i
		m.Spawn(0, func(c *machine.Ctx) {
			for n := 0; n < 3; n++ {
				v := tag(i, n)
				inv := c.Now()
				ti := c.Load(tailIdx) // racy read-modify-write
				c.Work(300)           // widen the race window
				c.Store(buf+mem.Addr(8*ti), v)
				c.Store(tailIdx, ti+1)
				rec.Record(i, inv, c.Now(), "enq", v, 0, true)
			}
		})
	}
	for i := 2; i < 4; i++ {
		i := i
		m.Spawn(100_000, func(c *machine.Ctx) {
			for n := 0; n < 5; n++ {
				inv := c.Now()
				hi := c.Load(headIdx)
				ti := c.Load(tailIdx)
				if hi < ti {
					v := c.Load(buf + mem.Addr(8*hi))
					c.Store(headIdx, hi+1)
					rec.Record(i, inv, c.Now(), "deq", 0, v, true)
				} else {
					rec.Record(i, inv, c.Now(), "deq", 0, 0, false)
				}
				c.Work(c.Rand().Uint64n(64))
			}
		})
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if linearize.Check(rec.Ops, linearize.QueueModel()) {
		t.Fatal("racy queue produced a linearizable history; race did not trigger")
	}
}
