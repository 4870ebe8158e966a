package ds

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"leaserelease/internal/coherence"
	"leaserelease/internal/faults"
	"leaserelease/internal/linearize"
	"leaserelease/internal/machine"
)

// One harness for the contended stacks and queues of Figures 2 and 3. Each
// entry of containerTests runs once per lease time in its leases, as a case
// named after the entry with "-lease<N>" appended for N > 0. The tests of
// each structure's file are one-line forEachContainer calls over its cases.

// containerTests declares the entries.
var containerTests = []struct {
	name   string
	fifo   bool
	leases []uint64 // nil: the entry takes no lease time
	new    func(x machine.API, lease uint64, threads int) Container
}{
	{"stack", false, []uint64{0, 20000, 300}, func(x machine.API, lease uint64, _ int) Container {
		return NewStack(x, StackOptions{Lease: lease})
	}},
	{"stack-backoff", false, nil, func(x machine.API, _ uint64, _ int) Container {
		return NewStack(x, StackOptions{Backoff: Backoff{Min: 32, Max: 2048}})
	}},
	{"queue", true, []uint64{0, 20000}, func(x machine.API, lease uint64, _ int) Container {
		if lease == 0 {
			return NewQueue(x, QueueOptions{})
		}
		return NewQueue(x, QueueOptions{Mode: QueueSingleLease, LeaseTime: lease})
	}},
	{"queue-multi", true, nil, func(x machine.API, _ uint64, _ int) Container {
		return NewQueue(x, QueueOptions{Mode: QueueMultiLease, LeaseTime: 20000})
	}},
	{"elimination", false, nil, func(x machine.API, _ uint64, _ int) Container { return NewEliminationStack(x, 2) }},
	{"fcstack", false, nil, func(x machine.API, _ uint64, threads int) Container { return NewFCStack(x, threads) }},
	{"fcqueue", true, nil, func(x machine.API, _ uint64, threads int) Container { return NewFCQueue(x, threads) }},
	// A ring of 4 closes segments under every workload here.
	{"lcrq", true, nil, func(x machine.API, _ uint64, _ int) Container { return NewLCRQ(x, 4) }},
}

// containerCase is one entry at one lease time.
type containerCase struct {
	name, entry string
	fifo        bool
	new         func(x machine.API, threads int) Container // threads: cores that use it
}

// containerCases expands containerTests into its cases.
func containerCases() []containerCase {
	var cs []containerCase
	for _, e := range containerTests {
		leases := e.leases
		if leases == nil {
			leases = []uint64{0}
		}
		for _, lease := range leases {
			name := e.name
			if lease > 0 {
				name = fmt.Sprintf("%s-lease%d", e.name, lease)
			}
			cs = append(cs, containerCase{name, e.name, e.fifo,
				func(x machine.API, threads int) Container { return e.new(x, lease, threads) }})
		}
	}
	return cs
}

// forEachContainer runs body on each case named in names, by its own name or
// its entry's; no names runs every case.
func forEachContainer(t *testing.T, body func(t *testing.T, c containerCase), names ...string) {
	ran := map[string]bool{}
	for _, c := range containerCases() {
		if len(names) > 0 && !slices.Contains(names, c.name) && !slices.Contains(names, c.entry) {
			continue
		}
		ran[c.name], ran[c.entry] = true, true
		t.Run(c.name, func(t *testing.T) { body(t, c) })
	}
	for _, n := range names {
		if !ran[n] {
			t.Fatalf("no container case is named %q", n)
		}
	}
}

// sliceModel drives the container on one core against a slice model,
// LIFO or FIFO, over op sequences from testing/quick: a take on the empty
// container, the sequence (true puts the next value, false takes), a drain
// and one more take on the empty container. An empty take must be (0, false).
func sliceModel(t *testing.T, c containerCase) {
	f := func(ops []bool) bool {
		m := newM(1)
		s := c.new(m.Direct(), 1)
		var model []uint64
		next, failed := uint64(1), false
		take := func(x machine.API) {
			want, wantOK := uint64(0), len(model) > 0
			switch {
			case !wantOK:
			case c.fifo:
				want, model = model[0], model[1:]
			default:
				want, model = model[len(model)-1], model[:len(model)-1]
			}
			if v, ok := s.Take(x, 0); v != want || ok != wantOK {
				t.Errorf("ops %v: Take = (%d, %v), the model says (%d, %v)", ops, v, ok, want, wantOK)
				failed = true
			}
		}
		m.Spawn(0, func(x *machine.Ctx) {
			take(x)
			for _, put := range ops {
				if failed {
					return
				}
				if put {
					s.Put(x, 0, next)
					model = append(model, next)
					next++
				} else {
					take(x)
				}
			}
			for len(model) > 0 && !failed {
				take(x)
			}
			take(x)
		})
		if err := m.Drain(); err != nil {
			t.Error(err)
			return false
		}
		return !failed
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// conservation runs put/take pairs on 8 cores and drains what is left: every
// value put comes out exactly once, and a queue hands each consumer (the
// drain is one more) any one producer's values in order.
func conservation(t *testing.T, c containerCase) {
	const cores, per = 8, 50
	m := newM(cores)
	s := c.new(m.Direct(), cores)
	taken := make([][]uint64, cores+1)
	for i := 0; i < cores; i++ {
		m.Spawn(0, func(x *machine.Ctx) {
			for n := 0; n < per; n++ {
				s.Put(x, i, uint64(i*per+n+1))
				if v, ok := s.Take(x, i); ok {
					taken[i] = append(taken[i], v)
				}
				x.Work(x.Rand().Uint64n(40))
			}
		})
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	d := m.Direct()
	for v, ok := s.Take(d, 0); ok; v, ok = s.Take(d, 0) {
		taken[cores] = append(taken[cores], v)
	}
	seen := map[uint64]bool{}
	for consumer, vs := range taken {
		last := map[uint64]uint64{}
		for _, v := range vs {
			if v == 0 || v > cores*per || seen[v] {
				t.Fatalf("consumer %d took %d, which was never put or was taken before", consumer, v)
			}
			seen[v] = true
			producer := (v - 1) / per
			if c.fifo && v < last[producer] {
				t.Fatalf("consumer %d took producer %d's values out of order (%d after %d)",
					consumer, producer, v, last[producer])
			}
			last[producer] = v
		}
	}
	if len(seen) != cores*per {
		t.Fatalf("put %d values, took %d", cores*per, len(seen))
	}
}

// twoCoreHandoff: one producer, one consumer; a FIFO container must hand the
// values over in exactly the order they were put.
func twoCoreHandoff(t *testing.T, c containerCase) {
	const n = 100
	m := newM(2)
	s := c.new(m.Direct(), 2)
	var got []uint64
	m.Spawn(0, func(x *machine.Ctx) {
		for v := uint64(1); v <= n; v++ {
			s.Put(x, 0, v)
			x.Work(20)
		}
	})
	m.Spawn(0, func(x *machine.Ctx) {
		for len(got) < n {
			if v, ok := s.Take(x, 1); ok {
				got = append(got, v)
			} else {
				x.Work(50)
			}
		}
	})
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("single-producer FIFO violated at %d: %v", i, got[:i+1])
		}
	}
}

// faultProfiles are the two profiles every linearizability test runs: clean,
// and cores preempted at 10% of accesses for 50..3000 cycles.
var faultProfiles = []struct {
	name string
	fc   faults.Config
}{
	{"clean", faults.Config{}},
	{"preempted", faults.Config{PreemptPermille: 100, PreemptMin: 50, PreemptMax: 3000}},
}

// linearizable checks the container's histories on each coherence protocol
// and fault profile, at seeds 1–3. The elimination stack's cells must
// eliminate at least one pair between them, or no eliminated pair was
// checked.
func linearizable(t *testing.T, c containerCase) {
	var eliminations uint64
	for _, proto := range coherence.Protocols() {
		for _, prof := range faultProfiles {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", proto, prof.name, seed), func(t *testing.T) {
					eliminations += linearizableCell(t, c, proto, prof.fc, seed)
				})
			}
		}
	}
	if c.entry == "elimination" && eliminations == 0 {
		t.Fatal("no cell eliminated a pair")
	}
}

// linearizableCell records a history of 6 threads × 4 random puts and takes
// and checks it against linearize.StackModel or QueueModel. A preempted
// lease holder's lease expires involuntarily, so a CAS window "protected" by
// an expired lease shows up as a non-linearizable history. It returns the
// elimination stack's eliminations (0 for any other container).
func linearizableCell(t *testing.T, c containerCase, proto string, fc faults.Config, seed uint64) uint64 {
	t.Helper()
	const threads, per = 6, 4
	model, put, take := linearize.StackModel(), "push", "pop"
	if c.fifo {
		model, put, take = linearize.QueueModel(), "enq", "deq"
	}
	cfg := machine.DefaultConfig(threads)
	cfg.Protocol, cfg.Faults, cfg.Seed = proto, fc, seed
	m := machine.New(cfg)
	s := c.new(m.Direct(), threads)
	rec := &linearize.Recorder{}
	for i := 0; i < threads; i++ {
		m.Spawn(0, func(x *machine.Ctx) {
			for n := 0; n < per; n++ {
				inv := x.Now()
				if x.Rand().Intn(2) == 0 {
					v := uint64(i*per + n + 1)
					s.Put(x, i, v)
					rec.Record(i, inv, x.Now(), put, v, 0, true)
				} else {
					v, ok := s.Take(x, i)
					rec.Record(i, inv, x.Now(), take, 0, v, ok)
				}
				x.Work(x.Rand().Uint64n(64))
			}
		})
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	if fc.PreemptMax > 0 && m.Stats().Preemptions == 0 {
		t.Fatal("the preempted history saw no preemption")
	}
	if !linearize.Check(rec.Ops, model) {
		t.Fatalf("history not linearizable:\n%v", rec.Ops)
	}
	if e, ok := s.(*EliminationStack); ok {
		return e.Eliminations
	}
	return 0
}

// TestContainersLinearizable checks every case on both protocols, clean and
// preempted. The bump allocators never recycle a node, so ABA and
// reclamation bugs cannot happen; the models catch lost and reordered
// values.
func TestContainersLinearizable(t *testing.T) { forEachContainer(t, linearizable) }
