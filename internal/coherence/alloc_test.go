//go:build !race

package coherence_test

import (
	"testing"

	"leaserelease/internal/cache"
	. "leaserelease/internal/coherence"
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
// pooled request or the line's record already holds, so once a line exists a
// transaction on it allocates nothing in the directory — neither an L2 fill
// nor a transfer forwarded through the owner, under either protocol. What a
// Tardis read grant allocates is the policy's: the reservation record and the
// closure of its self-invalidation timer. (Compiled out under -race, where
// AllocsPerRun over-counts.)
func TestMissPathZeroAlloc(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			eng := sim.NewEngine()
			env := new(nopEnv)
			d := b.new(eng, env, DefaultTiming())
			reqs := [2]*Request{new(Request), new(Request)}
			txn := func(core int, line mem.Line, excl bool) {
				reqs[core].Reset(core, line, excl, false)
				d.Submit(reqs[core])
				if err := eng.Drain(); err != nil {
					t.Fatal(err)
				}
			}

			txn(0, 1, false) // the cold fill creates the line's record
			read := testing.AllocsPerRun(100, func() { txn(0, 1, false) })
			wantRead := 0.0
			if b.name == ProtocolTardis {
				// Drain ran the reservation out each time: tag-only renewals.
				if wantRead = 2; d.Stats.Renewals != 101 {
					t.Fatalf("%d renewals, want 101: the reads were not renewals", d.Stats.Renewals)
				}
			} else if st := d.View(1).State; st != "S" {
				t.Fatalf("line 1 is %s, want S: the reads were not L2 fills", st)
			}

			txn(0, 2, true)
			core := 0
			forward := testing.AllocsPerRun(100, func() {
				core ^= 1
				txn(core, 2, true)
			})
			wantOwner(t, d, 2, core)

			if read != wantRead || forward != 0 {
				t.Errorf("a read grant allocates %.1f objects and an owner-forwarded transfer %.1f, want %.0f and 0", read, forward, wantRead)
			}
			if env.completes != 2+2*101 {
				t.Errorf("%d transactions completed, want %d", env.completes, 2+2*101)
			}
		})
	}
}
