//go:build race

package machine

import (
	"fmt"

	"leaserelease/internal/coherence"
	"leaserelease/internal/mem"
)

// Poison mode, enabled in -race builds: pooled-request lifecycle bugs fail
// loudly instead of corrupting determinism. poisonRelease scribbles the
// request with values every downstream consumer chokes on — the directory's
// bit() panics on the core index, and the line maps to an address no
// workload allocates — so a protocol path that holds a Request past its
// transaction trips immediately.

const (
	poisonCore = -0x0150_0150 // bit() panics on any negative core
	poisonLine = mem.Line(^uint64(0) >> 1)
)

func poisonAcquire(cs *coreState, req *coherence.Request) {
	if cs.reqBusy {
		panic(fmt.Sprintf(
			"machine: pooled request reused while in flight (core %d, line %#x): "+
				"a second transaction started before the first completed",
			cs.id, uint64(req.Line)))
	}
	cs.reqBusy = true
}

func poisonRelease(cs *coreState, req *coherence.Request) {
	if !cs.reqBusy {
		panic(fmt.Sprintf("machine: pooled request double-released (core %d)", cs.id))
	}
	cs.reqBusy = false
	req.Core = poisonCore
	req.Line = poisonLine
	req.Txn = 0
}

// An expiry record back in its core's pool — its callback queued twice, or
// kept past its event — panics when it fires instead of ending whatever lease
// the record names next.

func poisonTakeExpiry(x *expiry) { x.live = true }

func poisonFreeExpiry(x *expiry) {
	if !x.live {
		panic(fmt.Sprintf("machine: released lease expiry fired (core %d)", x.cs.id))
	}
	x.live = false
}
