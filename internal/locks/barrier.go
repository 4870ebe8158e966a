package locks

import (
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
)

// Barrier is a sense-reversing centralized barrier on simulated memory,
// used by the Pagerank application to separate iteration phases. Each
// thread keeps its own local sense.
type Barrier struct {
	count mem.Addr // arrivals in the current phase
	sense mem.Addr // global sense, flipped by the last arriver
	n     uint64
}

// BarrierHandle is a thread's private sense state.
type BarrierHandle struct{ local uint64 }

// NewBarrier allocates a barrier for n participants.
func NewBarrier(x machine.API, n int) *Barrier {
	return &Barrier{count: x.Alloc(8), sense: x.Alloc(8), n: uint64(n)}
}

// NewHandle returns a fresh per-thread handle.
func (b *Barrier) NewHandle() *BarrierHandle { return &BarrierHandle{} }

// Wait blocks until all n participants have arrived.
func (b *Barrier) Wait(x machine.API, h *BarrierHandle) {
	h.local ^= 1
	if x.FetchAdd(b.count, 1)+1 == b.n {
		x.Store(b.count, 0)
		x.Store(b.sense, h.local)
		return
	}
	for u := x.Load(b.sense); u != h.local; u = x.Spin(b.sense, u, 64) {
	}
}
