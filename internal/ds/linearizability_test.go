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

func TestQueueLinearizable(t *testing.T) { forEachContainer(t, linearizable, "queue", "queue-multi") }

func TestStackLinearizable(t *testing.T) { forEachContainer(t, linearizable, "stack", "stack-backoff") }

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
				v := uint64(i*3 + n + 1)
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
