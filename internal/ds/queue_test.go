package ds

import (
	"testing"

	"leaserelease/internal/machine"
)

func TestQueueSequentialFIFO(t *testing.T) { forEachContainer(t, sliceModel, "queue", "queue-multi") }

func TestQueueConcurrentBase(t *testing.T)  { forEachContainer(t, conservation, "queue") }
func TestQueueConcurrentLease(t *testing.T) { forEachContainer(t, conservation, "queue-lease20000") }
func TestQueueConcurrentMulti(t *testing.T) { forEachContainer(t, conservation, "queue-multi") }

// TestQueueTwoCoreHandoff runs for every FIFO container.
func TestQueueTwoCoreHandoff(t *testing.T) {
	forEachContainer(t, twoCoreHandoff, "queue", "queue-multi", "fcqueue", "lcrq")
}

// TestQueueSingleLeaseBeatsBase reproduces Figure 3 (queue) direction.
func TestQueueSingleLeaseBeatsBase(t *testing.T) {
	run := func(mode QueueLeaseMode) uint64 {
		m := newM(8)
		q := NewQueue(m.Direct(), QueueOptions{Mode: mode, LeaseTime: 20000})
		var ops uint64
		for i := 0; i < 8; i++ {
			m.Spawn(0, func(c *machine.Ctx) {
				for {
					q.Enqueue(c, 1)
					q.Dequeue(c)
					ops += 2
				}
			})
		}
		if err := m.Run(500000); err != nil {
			t.Fatal(err)
		}
		m.Stop()
		return ops
	}
	base := run(QueueNoLease)
	leased := run(QueueSingleLease)
	if leased <= base {
		t.Fatalf("leased queue %d <= base %d at 8 threads", leased, base)
	}
}
