//go:build !race

package coherence

import (
	"testing"

	"leaserelease/internal/cache"
	"leaserelease/internal/mem"
	"leaserelease/internal/sim"
)

// nopEnv is an Env with no core side, as the benchmark's coherence probes
// use: what is measured is the directory alone.
type nopEnv struct{ completes int }

func (*nopEnv) DeliverProbe(int, *Request) bool  { return false }
func (*nopEnv) Invalidate(int, mem.Line)         {}
func (e *nopEnv) Complete(*Request, cache.State) { e.completes++ }
func (*nopEnv) CountMsg(MsgKind, int)            {}
func (*nopEnv) CountL2()                         {}
func (*nopEnv) CountDRAM()                       {}

// TestMissPathZeroAlloc: every hop of a miss is an event whose callback the
// pooled request or the line's entry already holds, so once a line exists a
// transaction on it allocates nothing — neither an L2 fill nor a transfer
// forwarded through the owner. (Compiled out under -race, where AllocsPerRun
// over-counts.)
func TestMissPathZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	env := new(nopEnv)
	d := NewDirectory(eng, env, DefaultTiming())
	reqs := [2]*Request{new(Request), new(Request)}
	txn := func(core int, line mem.Line, excl bool) {
		reqs[core].Reset(core, line, excl, false)
		d.Submit(reqs[core])
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
	}

	txn(0, 1, false) // the cold fill creates the line's entry
	fill := testing.AllocsPerRun(100, func() { txn(0, 1, false) })
	if st, _, _ := d.State(1); st != "S" {
		t.Fatalf("line 1 is %s, want S: the reads were not L2 fills", st)
	}

	txn(0, 2, true)
	core := 0
	forward := testing.AllocsPerRun(100, func() {
		core ^= 1
		txn(core, 2, true)
	})
	if st, owner, _ := d.State(2); st != "M" || owner != core {
		t.Fatalf("line 2 is %s owned by %d, want M/%d: the writes were not transfers", st, owner, core)
	}

	if fill != 0 || forward != 0 {
		t.Errorf("an L2 fill allocates %.1f objects and an owner-forwarded transfer %.1f, want 0 and 0", fill, forward)
	}
	if env.completes != 2+2*101 {
		t.Errorf("%d transactions completed, want %d", env.completes, 2+2*101)
	}
}
