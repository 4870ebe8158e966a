package ds

import (
	"testing"

	"leaserelease/internal/machine"
)

func newM(cores int) *machine.Machine { return machine.New(machine.DefaultConfig(cores)) }

func TestStackSequential(t *testing.T) { forEachContainer(t, sliceModel, "stack", "stack-backoff") }

func TestStackConcurrentBase(t *testing.T) { forEachContainer(t, conservation, "stack") }

func TestStackConcurrentLeased(t *testing.T) {
	forEachContainer(t, conservation, "stack-lease20000", "stack-lease300")
}

func TestStackConcurrentBackoff(t *testing.T) { forEachContainer(t, conservation, "stack-backoff") }

// TestStackLeaseEliminatesCASFailures: the Figure 1 placement guarantees
// the CAS succeeds while the lease holds, so CAS failures should be (near)
// zero with leases and plentiful without.
func TestStackLeaseEliminatesCASFailures(t *testing.T) {
	run := func(opt StackOptions) machine.Stats {
		m := newM(8)
		s := NewStack(m.Direct(), opt)
		for i := 0; i < 8; i++ {
			m.Spawn(0, func(c *machine.Ctx) {
				for {
					if c.Rand().Intn(2) == 0 {
						s.Push(c, 1)
					} else {
						s.Pop(c)
					}
					c.Work(c.Rand().Uint64n(32))
				}
			})
		}
		if err := m.Run(300000); err != nil {
			t.Fatal(err)
		}
		m.Stop()
		return m.Stats()
	}
	base := run(StackOptions{})
	leased := run(StackOptions{Lease: 20000})
	if base.CASFailures == 0 {
		t.Fatal("base stack shows no CAS failures under 8-way contention; contention model broken")
	}
	if leased.CASFailures*10 > base.CASFailures {
		t.Fatalf("leased CAS failures %d vs base %d: lease not preventing retries",
			leased.CASFailures, base.CASFailures)
	}
}

// TestStackLeaseThroughputWins reproduces Figure 2's direction at 8
// threads: the leased stack must beat the base stack under contention.
func TestStackLeaseThroughputWins(t *testing.T) {
	run := func(opt StackOptions) uint64 {
		m := newM(8)
		s := NewStack(m.Direct(), opt)
		var ops uint64
		for i := 0; i < 8; i++ {
			m.Spawn(0, func(c *machine.Ctx) {
				for {
					s.Push(c, 1)
					s.Pop(c)
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
	base := run(StackOptions{})
	leased := run(StackOptions{Lease: 20000})
	if leased <= base {
		t.Fatalf("leased throughput %d <= base %d at 8 threads", leased, base)
	}
}
