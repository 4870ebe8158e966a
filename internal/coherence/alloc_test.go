//go:build !race

package coherence_test

import (
	"runtime"
	"testing"

	"leaserelease/internal/cache"
	. "leaserelease/internal/coherence"
	"leaserelease/internal/mem"
	"leaserelease/internal/sim"
)

// nopEnv is an Env with no core side, as the benchmark's coherence probes
// use: what is measured is the directory alone.
type nopEnv struct{ completes, invals int }

func (*nopEnv) DeliverProbe(int, *Request) bool  { return false }
func (e *nopEnv) Invalidate(int, mem.Line)       { e.invals++ }
func (e *nopEnv) Complete(*Request, cache.State) { e.completes++ }
func (*nopEnv) CountMsg(MsgKind, int)            {}
func (*nopEnv) CountL2()                         {}
func (*nopEnv) CountDRAM()                       {}

// allocsOf runs setup and then measured runs times, and returns what
// measured alone allocates per run.
func allocsOf(runs int, setup, measured func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	setup()
	measured() // warm-up
	var before, after runtime.MemStats
	var total uint64
	for i := 0; i < runs; i++ {
		setup()
		runtime.ReadMemStats(&before)
		measured()
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	return float64(total) / float64(runs)
}

// TestMissPathZeroAlloc: every hop of a miss is an event whose callback the
// pooled request or the line's record already holds, and every invalidation,
// eviction notice and lapse one whose pooled record holds it, so once a line
// exists a transaction on it allocates nothing in the directory — neither an
// L2 fill, nor a transfer forwarded through the owner, nor an upgrade that
// invalidates two sharers — and neither does a Writeback or a SharerDrop,
// under either protocol. Nor does a Tardis read grant: the reader's
// reservation is a value in the line's record, rewritten in place, and its
// lapse a pooled notice. (Compiled out under -race, where AllocsPerRun
// over-counts.)
func TestMissPathZeroAlloc(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			eng := sim.NewEngine()
			env := new(nopEnv)
			d := b.new(eng, env, DefaultTiming())
			reqs := [3]*Request{new(Request), new(Request), new(Request)}
			txn := func(core int, line mem.Line, excl bool) {
				reqs[core].Reset(core, line, excl, false)
				d.Submit(reqs[core])
				if err := eng.Drain(); err != nil {
					t.Fatal(err)
				}
			}

			txn(0, 1, false) // the cold fill creates the line's record
			read := testing.AllocsPerRun(100, func() { txn(0, 1, false) })
			if b.name == ProtocolTardis {
				// Drain ran the reservation out each time: tag-only renewals.
				if d.Stats.Renewals != 101 {
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

			// Cores 1 and 2 read line 3 from its owner, core 0, which then
			// writes it again: under MSI an upgrade that invalidates both.
			txn(0, 3, true)
			var invals int
			upgrade := allocsOf(100, func() {
				txn(1, 3, false)
				txn(2, 3, false)
				invals = env.invals
			}, func() { txn(0, 3, true) })
			wantOwner(t, d, 3, 0)
			if b.name == ProtocolMSI && env.invals-invals != 2 {
				t.Fatalf("the upgrade sent %d invalidations, want 2", env.invals-invals)
			}

			writeback := testing.AllocsPerRun(100, func() {
				d.Writeback(0, 3)
				eng.Drain()
			})
			drop := testing.AllocsPerRun(100, func() {
				d.SharerDrop(1, 1)
				eng.Drain()
			})

			if read != 0 || forward != 0 || upgrade != 0 || writeback != 0 || drop != 0 {
				t.Errorf("a read grant allocates %.1f objects, an owner-forwarded transfer %.1f, an upgrade %.1f, "+
					"a Writeback %.1f and a SharerDrop %.1f; want 0 each",
					read, forward, upgrade, writeback, drop)
			}
			if want := 2 + 2*101 + 1 + 3*101; env.completes != want {
				t.Errorf("%d transactions completed, want %d", env.completes, want)
			}
		})
	}
}
