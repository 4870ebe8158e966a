//go:build !race

package coherence_test

import (
	"runtime"
	"testing"

	"leaserelease/internal/cache"
	. "leaserelease/internal/coherence"
	"leaserelease/internal/faults"
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
// pooled request already holds, and every commit, invalidation, eviction
// notice, lapse and stalled service one whose pooled record holds it, so a
// transaction allocates nothing in the directory — neither an L2 fill, nor a
// transfer forwarded through the owner, nor an upgrade that invalidates two
// sharers — and neither does a Writeback or a SharerDrop, under either
// protocol. Nor does a Tardis read grant: the reader's reservation is a value
// in the line's record, rewritten in place, and its lapse a pooled notice. A
// line's first request allocates nothing either (its record is a slab
// element), except under Tardis a read's, which makes the line's reservation
// slice. (Compiled out under -race, where AllocsPerRun over-counts.)
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

			// Never-touched lines, all in the index's first chunk.
			fresh := mem.Line(100)
			freshWrite := testing.AllocsPerRun(100, func() {
				fresh++
				txn(0, fresh, true)
			})
			freshRead := testing.AllocsPerRun(100, func() {
				fresh++
				txn(1, fresh, false)
			})
			wantFreshRead := 0.0
			if b.name == ProtocolTardis {
				wantFreshRead = 1 // the line's first reservation slice
			}

			// Every service waits out a directory stall first.
			d.Faults = faults.New(faults.Config{DirStallPct: 100, DirStallCycles: 40}, 1)
			stalled := testing.AllocsPerRun(100, func() {
				core ^= 1
				txn(core, 2, true)
			})
			if n := d.Faults.Stats().DirStalls; n != 101 {
				t.Fatalf("%d directory stalls, want 101", n)
			}

			if read != 0 || forward != 0 || upgrade != 0 || writeback != 0 || drop != 0 || stalled != 0 {
				t.Errorf("a read grant allocates %.1f objects, an owner-forwarded transfer %.1f, an upgrade %.1f, "+
					"a Writeback %.1f, a SharerDrop %.1f and a stalled transfer %.1f; want 0 each",
					read, forward, upgrade, writeback, drop, stalled)
			}
			if freshWrite != 0 || freshRead != wantFreshRead {
				t.Errorf("a line's first write allocates %.1f objects and its first read %.1f; want 0 and %.0f",
					freshWrite, freshRead, wantFreshRead)
			}
			if want := 2 + 2*101 + 1 + 3*101 + 3*101; env.completes != want {
				t.Errorf("%d transactions completed, want %d", env.completes, want)
			}
		})
	}
}
