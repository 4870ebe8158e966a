package machine_test

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"leaserelease/internal/coherence"
	"leaserelease/internal/ds"
	"leaserelease/internal/faults"
	"leaserelease/internal/locks"
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
	"leaserelease/internal/sim"
)

// loopAPI is a Ctx whose Spin is the loop API.Spin stands for: the reference
// side of TestSpinMatchesLoop.
type loopAPI struct{ *machine.Ctx }

func (x loopAPI) Spin(a mem.Addr, v, pause uint64) uint64 {
	for {
		x.Work(pause)
		if u := x.Load(a); u != v {
			return u
		}
	}
}

// spinProg builds a program on a fresh machine: the body each thread runs
// once (a looping body counts its operations in ops[tid]).
type spinProg func(d *machine.Direct, ops []uint64) func(tid int, x machine.API)

// spinCell is what a run leaves behind for the programs and a report to see.
type spinCell struct {
	stats    []machine.Stats // after each Run
	errs     []string        // each Run's error, "" for none
	ops      []uint64
	image    []uint64
	finished uint64
	engine   sim.EngineStats
}

// runSpinCell runs prog on threads cores of a machine built from cfg, with
// Ctx's Spin or (loop) the plain loop, stopping at each of runs (sim.MaxTime
// drains); between, if set, runs after each Run but the last.
func runSpinCell(t *testing.T, cfg machine.Config, threads int, prog spinProg, runs []uint64,
	loop bool, between func(d *machine.Direct, run int)) spinCell {
	t.Helper()
	m := machine.New(cfg)
	d := m.Direct()
	ops := make([]uint64, threads)
	body := prog(d, ops)
	for i := 0; i < threads; i++ {
		m.Spawn(0, func(c *machine.Ctx) {
			var x machine.API = c
			if loop {
				x = loopAPI{c}
			}
			body(i, x)
		})
	}
	var cell spinCell
	for i, until := range runs {
		err := m.Run(until)
		var dl *sim.DeadlockError
		switch {
		case errors.As(err, &dl):
			cell.errs = append(cell.errs, "deadlock")
		case err != nil:
			t.Fatal(err)
		default:
			cell.errs = append(cell.errs, "")
		}
		cell.stats = append(cell.stats, m.Stats())
		if err := m.VerifyCoherence(); err != nil {
			t.Fatal(err)
		}
		if between != nil && i < len(runs)-1 {
			between(d, i)
		}
	}
	cell.ops, cell.image, cell.finished = ops, machine.MemImage(m), m.FinishedAt()
	cell.engine = m.EngineStats()
	m.Stop()
	return cell
}

// compareSpin runs prog both ways and requires the same simulation. It
// returns the Spin side's engine counters.
func compareSpin(t *testing.T, cfg machine.Config, threads int, prog spinProg, runs []uint64,
	between func(d *machine.Direct, run int)) sim.EngineStats {
	t.Helper()
	ref := runSpinCell(t, cfg, threads, prog, runs, true, between)
	got := runSpinCell(t, cfg, threads, prog, runs, false, between)
	for i := range ref.stats {
		if got.stats[i] != ref.stats[i] {
			t.Fatalf("Stats after Run %d (until %d) differ:\n Spin %+v\n loop %+v", i, runs[i], got.stats[i], ref.stats[i])
		}
	}
	if !slices.Equal(got.errs, ref.errs) {
		t.Fatalf("Run errors differ: Spin %q, loop %q", got.errs, ref.errs)
	}
	if !slices.Equal(got.ops, ref.ops) {
		t.Fatalf("per-thread operations differ: Spin %v, loop %v", got.ops, ref.ops)
	}
	if !slices.Equal(got.image, ref.image) {
		t.Fatal("final memory images differ")
	}
	if got.finished != ref.finished {
		t.Fatalf("FinishedAt: Spin %d, loop %d", got.finished, ref.finished)
	}
	if ref.engine.SpinParks != 0 || ref.engine.SpinLoadsElided != 0 {
		t.Fatalf("the plain loop parked: %+v", ref.engine)
	}
	return got.engine
}

// jitterWork is a thread's think time between operations.
func jitterWork(x machine.API) { x.Work(x.Rand().Uint64n(64)) }

// lockCounter is a counter behind lock, one increment per operation.
func lockCounter(newLock func(d *machine.Direct) locks.TryLock) spinProg {
	return func(d *machine.Direct, ops []uint64) func(int, machine.API) {
		l, ctr := newLock(d), d.Alloc(8)
		return func(tid int, x machine.API) {
			for {
				l.Lock(x)
				x.Store(ctr, x.Load(ctr)+1)
				l.Unlock(x)
				jitterWork(x)
				ops[tid]++
			}
		}
	}
}

// spinPrograms are the converted spin sites under contention.
var spinPrograms = []struct {
	name string
	// owned says the program spins on lines it owns, which under Tardis
	// park too: a TTS waiter whose swap failed holds the lock line Modified.
	owned bool
	prog  spinProg
}{
	{"tts-counter", true, lockCounter(func(d *machine.Direct) locks.TryLock { return locks.NewTTS(d) })},
	{"ticket-counter", false, lockCounter(func(d *machine.Direct) locks.TryLock { return locks.NewTicket(d) })},
	{"clh-counter", false, func(d *machine.Direct, ops []uint64) func(int, machine.API) {
		l, ctr := locks.NewCLH(d), d.Alloc(8)
		return func(tid int, x machine.API) {
			h := l.NewHandle(x)
			for {
				l.Lock(x, h)
				x.Store(ctr, x.Load(ctr)+1)
				l.Unlock(x, h)
				jitterWork(x)
				ops[tid]++
			}
		}
	}},
	{"lock-stack", true, func(d *machine.Direct, ops []uint64) func(int, machine.API) {
		l, s := locks.NewTTS(d), ds.NewStack(d, ds.StackOptions{})
		for v := uint64(1); v <= 32; v++ {
			s.Push(d, v)
		}
		return func(tid int, x machine.API) {
			for {
				push := x.Rand().Uint64n(2) == 0
				l.Lock(x)
				if push {
					s.Push(x, 1)
				} else {
					s.Pop(x)
				}
				l.Unlock(x)
				jitterWork(x)
				ops[tid]++
			}
		}
	}},
	{"barrier", false, func(d *machine.Direct, ops []uint64) func(int, machine.API) {
		b := locks.NewBarrier(d, len(ops))
		return func(tid int, x machine.API) {
			h := b.NewHandle()
			for {
				x.Work(x.Rand().Uint64n(400))
				b.Wait(x, h)
				ops[tid]++
			}
		}
	}},
}

// spinFaults are the fault profiles of TestSpinMatchesLoop: clean, every
// access a preemption point, and preemption of lease holders and writers
// only.
var spinFaults = []struct {
	name   string
	faults faults.Config
}{
	{"clean", faults.Config{}},
	{"preempt", faults.Config{PreemptPermille: 20, PreemptMin: 20, PreemptMax: 2_000}},
	{"preempt-targeted", faults.Config{PreemptPermille: 100, PreemptMin: 1, PreemptMax: 300, PreemptTargeted: true}},
}

// TestSpinMatchesLoop requires Ctx's Spin to leave the simulation the loop it
// stands for leaves: Stats after every Run, Run errors, per-thread progress,
// memory image, FinishedAt. The converted sites run under contention, and
// directed cases pin each exactness rule of the elision to a case that fails
// without it.
func TestSpinMatchesLoop(t *testing.T) {
	t.Run("sites", spinSites)
	t.Run("message-on-a-load-cycle", spinMessageOnALoadCycle)
	t.Run("lease-end", spinLeaseEnd)
	t.Run("tardis-read-forward", spinTardisReadForward)
	t.Run("across-runs", spinAcrossRuns)
	t.Run("drain-with-a-waiter", spinDrainWithAWaiter)
	t.Run("direct", directSpin)
}

// spinSites runs every converted spin site on both protocols, clean and
// preempted, over Runs whose stop times fall mid-spin. Each cell must elide
// loads under MSI, where every copy is private; under Tardis only a spin on
// an owned line parks.
func spinSites(t *testing.T) {
	const threads = 8
	// Five seeds fill the test's budget of about a second of the package's
	// run on a two-core host; -short keeps one.
	seeds := []uint64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:1]
	}
	runs := []uint64{9_001, 23_000, 40_007}
	for _, p := range spinPrograms {
		for _, proto := range coherence.Protocols() {
			var elided uint64
			for _, prof := range spinFaults {
				for _, seed := range seeds {
					t.Run(fmt.Sprintf("%s/%s/%s/seed%d", p.name, proto, prof.name, seed), func(t *testing.T) {
						cfg := machine.DefaultConfig(threads)
						cfg.Seed, cfg.Protocol, cfg.Faults = seed, proto, prof.faults
						es := compareSpin(t, cfg, threads, p.prog, runs, nil)
						if proto == coherence.ProtocolMSI && es.SpinLoadsElided == 0 {
							t.Errorf("no load elided: %+v", es)
						}
						elided += es.SpinLoadsElided
					})
				}
			}
			if proto == coherence.ProtocolTardis && p.owned && elided == 0 {
				t.Errorf("%s/tardis: no load elided in any cell", p.name)
			}
		}
	}
}

// directedConfig is a machine with no network jitter, so that a directed
// case's message lands where its sweep puts it.
func directedConfig(cores int, proto string) machine.Config {
	cfg := machine.DefaultConfig(cores)
	cfg.Protocol = proto
	cfg.Timing.NetJitter = 0
	return cfg
}

// spinPause is the directed cases' pause: a load every spinPause+1 cycles,
// so a sweep of that many consecutive start times puts a message on every
// residue, one of them a load cycle.
const spinPause = 3

// spinMessageOnALoadCycle: a message from the system domain at the cycle
// of a parked load orders after it (the load's wake sorts first), so the
// load hits the copy as it was. Swept over every residue of the spin period,
// for an invalidation of a Shared copy (MSI) and a probe of a Modified one
// (both protocols).
func spinMessageOnALoadCycle(t *testing.T) {
	for _, tc := range []struct {
		name, proto string
		own         bool // the spinner takes the line Modified first
	}{
		{"invalidation/msi", coherence.ProtocolMSI, false},
		{"probe/msi", coherence.ProtocolMSI, true},
		{"probe/tardis", coherence.ProtocolTardis, true},
	} {
		for s := uint64(0); s < 2*(spinPause+1); s++ {
			t.Run(fmt.Sprintf("%s/writer-at-%d", tc.name, 600+s), func(t *testing.T) {
				prog := func(d *machine.Direct, ops []uint64) func(int, machine.API) {
					w := d.Alloc(8)
					return func(tid int, x machine.API) {
						if tid == 1 {
							x.Work(600 + s)
							x.Store(w, 7)
							return
						}
						if tc.own {
							x.Store(w, 0)
						}
						if x.Spin(w, 0, spinPause) == 7 {
							ops[0] = x.Now()
						}
					}
				}
				es := compareSpin(t, directedConfig(2, tc.proto), 2, prog, []uint64{sim.MaxTime}, nil)
				if es.SpinParks == 0 {
					t.Fatalf("the spinner never parked: %+v", es)
				}
			})
		}
	}
}

// spinLeaseEnd: one of the spinner's own lease timers at the cycle of a
// parked load orders before it (it was queued first), so the load sees what
// the expiry did; a lease broken by a probe ends at the probe's place, after
// the load of its cycle. Swept over every residue of the spin period: a lease
// on the spun line whose expiry serves a probe deferred behind it, and, under
// holder-targeted preemption, which draws only while the spinner holds a
// lease, a lease on another line that expires or that a regular request
// breaks (§5 prioritization).
func spinLeaseEnd(t *testing.T) {
	targeted := faults.Config{PreemptPermille: 300, PreemptMin: 1, PreemptMax: 20, PreemptTargeted: true}
	for _, proto := range coherence.Protocols() {
		for _, tc := range []struct {
			name   string
			faults faults.Config
			other  bool   // lease another line than the spun one
			dur    uint64 // the lease's duration
			probe  uint64 // when the other core reads the leased other line, 0 for never
			write  uint64 // when the other core writes the spun word
		}{
			{"expiry-serves-deferred-probe", faults.Config{}, false, 1_000, 0, 400},
			{"expiry-ends-holder-draws", targeted, true, 1_000, 0, 2_000},
			{"probe-breaks-lease", targeted, true, 10_000, 600, 2_000},
		} {
			for s := uint64(0); s < 2*(spinPause+1); s++ {
				t.Run(fmt.Sprintf("%s/%s/%d", proto, tc.name, s), func(t *testing.T) {
					prog := func(d *machine.Direct, ops []uint64) func(int, machine.API) {
						w, o := d.Alloc(8), d.Alloc(8)
						return func(tid int, x machine.API) {
							if tid == 1 {
								if tc.probe > 0 {
									x.Work(tc.probe + s)
									x.Load(o)
								}
								x.Work(tc.write)
								x.Store(w, 7)
								return
							}
							if tc.other {
								x.Lease(o, tc.dur+s)
								x.Load(w)
							} else {
								x.Lease(w, tc.dur+s)
							}
							if x.Spin(w, 0, spinPause) == 7 {
								ops[0] = x.Now()
							}
						}
					}
					cfg := directedConfig(2, proto)
					cfg.Faults, cfg.RegularBreaksLease = tc.faults, tc.probe > 0
					es := compareSpin(t, cfg, 2, prog, []uint64{sim.MaxTime}, nil)
					if es.SpinParks == 0 && (proto == coherence.ProtocolMSI || !tc.other) {
						t.Fatalf("the spinner never parked: %+v", es)
					}
				})
			}
		}
	}
}

// spinTardisReadForward: under Tardis a read-forward's probe downgrades
// the owner's copy to Shared at once, but the owner stays the line's owner
// until the commit a few cycles later, and Private says so. A spin that
// parked in that window would miss the next writer's store: it sends the
// Shared reader no message, and the reader's reservation lapses much later.
// Only a Modified copy parks under Tardis.
func spinTardisReadForward(t *testing.T) {
	for s := uint64(0); s < 2*(1+1); s++ {
		t.Run(fmt.Sprintf("reader-at-%d", 400+s), func(t *testing.T) {
			prog := func(d *machine.Direct, ops []uint64) func(int, machine.API) {
				w := d.Alloc(8)
				return func(tid int, x machine.API) {
					switch tid {
					case 1:
						x.Work(400 + s)
						x.Load(w)
					case 2:
						x.Work(900)
						x.Store(w, 7)
					default:
						x.Store(w, 1)
						if x.Spin(w, 1, 1) == 7 {
							ops[0] = x.Now()
						}
					}
				}
			}
			es := compareSpin(t, directedConfig(3, coherence.ProtocolTardis), 3, prog, []uint64{sim.MaxTime}, nil)
			if es.SpinParks == 0 {
				t.Fatalf("the spinner never parked: %+v", es)
			}
		})
	}
}

// spinAcrossRuns: a Run that stops between two parked loads leaves Stats
// as the loop would, with the loads before its stop time performed and the
// next one not; a Direct store between Runs ends the spin at its next load.
// A Run whose queue drains with only a parked spinner left stops at its
// horizon with no error, as the loop, which would have kept it busy; Drain
// then reports the spinner instead of spinning forever.
func spinAcrossRuns(t *testing.T) {
	var w mem.Addr // the spun word of the latest machine
	prog := func(d *machine.Direct, ops []uint64) func(int, machine.API) {
		w = d.Alloc(8)
		return func(tid int, x machine.API) {
			if tid == 1 {
				x.Work(300)
				x.Store(w, 1) // an idle reader's copy of a written word
				return
			}
			x.Spin(w, 0, spinPause)
			ops[0] = x.Spin(w, 1, spinPause) // ended by a Direct store, if any
		}
	}
	for _, proto := range coherence.Protocols() {
		for s := uint64(0); s < 2*(spinPause+1); s++ {
			runs := []uint64{2_000 + s, 2_500, 2_501, 2_502, 5_000}
			t.Run(fmt.Sprintf("%s/stop-at-%d", proto, runs[0]), func(t *testing.T) {
				es := compareSpin(t, directedConfig(2, proto), 2, prog, runs, nil)
				if proto == coherence.ProtocolMSI && es.SpinParks == 0 {
					t.Fatalf("the spinner never parked: %+v", es)
				}
			})
		}
	}
	store := func(d *machine.Direct, run int) {
		if run == 1 {
			d.Store(w, 2)
		}
	}
	for _, proto := range coherence.Protocols() {
		t.Run(proto+"/direct-store", func(t *testing.T) {
			compareSpin(t, directedConfig(2, proto), 2, prog, []uint64{2_001, 2_500, 6_000}, store)
		})
	}

	m := machine.New(directedConfig(2, coherence.ProtocolMSI))
	w = m.Direct().Alloc(8)
	m.Spawn(0, func(c *machine.Ctx) { c.Spin(w, 0, spinPause) })
	if err := m.Run(10_000); err != nil || m.Now() != 10_000 {
		t.Fatalf("Run(10000) with a parked spinner: %v at cycle %d", err, m.Now())
	}
	var dl *sim.DeadlockError
	if err := m.Drain(); !errors.As(err, &dl) || !strings.Contains(err.Error(), "spinning") {
		t.Fatalf("Drain with only a parked spinner: %v", err)
	}
	m.Stop()
}

// spinDrainWithAWaiter: a waiter parked behind a lock holder, drained to
// completion, leaves the clock where the loop's run would have settled.
func spinDrainWithAWaiter(t *testing.T) {
	for _, proto := range coherence.Protocols() {
		t.Run(proto, func(t *testing.T) {
			prog := func(d *machine.Direct, ops []uint64) func(int, machine.API) {
				l, ctr := locks.NewTTS(d), d.Alloc(8)
				return func(tid int, x machine.API) {
					x.Work(uint64(tid) * 50)
					for i := 0; i < 3; i++ {
						l.Lock(x)
						x.Store(ctr, x.Load(ctr)+1)
						x.Work(3_000)
						l.Unlock(x)
						ops[tid]++
					}
				}
			}
			es := compareSpin(t, directedConfig(4, proto), 4, prog, []uint64{sim.MaxTime}, nil)
			if proto == coherence.ProtocolMSI && es.SpinParks == 0 {
				t.Fatalf("no waiter parked: %+v", es)
			}
		})
	}
}

// directSpin: during setup nothing can change a word, so Direct.Spin
// returns one that differs from v and panics on one that does not.
func directSpin(t *testing.T) {
	m := machine.New(machine.DefaultConfig(1))
	d := m.Direct()
	w := d.Alloc(8)
	d.Store(w, 3)
	if got := d.Spin(w, 0, 10); got != 3 {
		t.Fatalf("Direct.Spin = %d, want 3", got)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "nothing can change") {
			t.Fatalf("Direct.Spin on a word that reads v: recovered %v", r)
		}
	}()
	d.Spin(w, 3, 10)
}
