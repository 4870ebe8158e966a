package main

import (
	"fmt"

	lr "leaserelease"
)

const (
	// leaseTime is the paper's MAX_LEASE_TIME (§7).
	leaseTime = 20_000

	setKeyRange = 1024
	setPrefill  = 512
	// queuePrefill elements are enqueued before the threads start. Enqueues
	// and dequeues are equally likely, so the length is a random walk that
	// moves a few hundred elements in a window; this many keep every
	// dequeue successful.
	queuePrefill = 8192
)

// program is one structure under test: op performs a single operation for
// thread tid, check verifies the structure's invariant once every thread
// has finished its last operation.
type program struct {
	op    func(tid int, c *lr.Ctx)
	check func(m *lr.Machine) error
}

// cellSpec is one side of a workload's A/B pair.
type cellSpec struct {
	name   string // "base" or "lease"
	window uint64 // measured cycles at scale 1
	build  func(m *lr.Machine) program
}

// reference is what the paper and EXPERIMENTS.md say about a workload's
// lease speed-up. Zero values mean no numeric reference exists.
type reference struct {
	paper    float64
	recorded float64
	note     string
}

// workload is the paper's A/B on one structure: a base cell and a lease
// cell on the same threads and seed.
type workload struct {
	name    string
	why     string
	threads int
	think   uint64 // each thread works a uniform [0, think) cycles between operations
	// warm cycles run before the measured window, as part of set-up, so
	// that caches are warm and the cold-start transient is over. The two
	// contended workloads simulate millions of cycles a host second and
	// open with a pile-up whose length depends on the seed: at 100 000
	// cycles their set-up took 15 to 60 ms by seed alone.
	warm     uint64
	recorder bool // attach a telemetry.Recorder with spans, ledger and hot lines
	cells    [2]cellSpec
	ref      reference
}

// workloads is the fixed set; later issues cite these names. The windows
// give about 2 s of host time per cell on the 2-core reference host.
var workloads = []workload{
	{
		name:    "counter64",
		why:     "one hot line behind a TTS lock: proc handoff, directory FIFO queue, lease table and deferred probes",
		threads: 64,
		think:   32,
		warm:    1_000_000,
		cells: [2]cellSpec{
			{"base", 8_000_000, counterProgram(false)},
			{"lease", 30_000_000, counterProgram(true)},
		},
		ref: reference{paper: 20, recorded: 10.8, note: "Fig. 3 counter, 64 threads"},
	},
	{
		name:    "hash64",
		why:     "bucket-locked hash table, 44% L1 misses over thousands of lines: directory map, deep event heap, DRAM path",
		threads: 64,
		think:   32,
		warm:    100_000,
		cells: [2]cellSpec{
			{"base", 300_000, hashProgram(0)},
			{"lease", 300_000, hashProgram(leaseTime)},
		},
		ref: reference{paper: 1.05, recorded: 1.14, note: "low contention, paper reports <=5%, recorded +13-15%"},
	},
	{
		name:    "lfskip16",
		why:     "lock-free skiplist, 94% L1 hits on long traversals: cache lookup, own-wake Sync, word store",
		threads: 16,
		think:   32,
		warm:    100_000,
		cells: [2]cellSpec{
			{"base", 600_000, lfskipProgram(0)},
			{"lease", 600_000, lfskipProgram(leaseTime)},
		},
	},
	{
		name:    "queue32-traced",
		why:     "Michael-Scott queue with a Recorder attached in both cells: the coherence path with the bus delivering every event",
		threads: 32,
		// With 32 cycles the no-lease queue phase-locks into one of two
		// regimes (1.37 or 1.69 Mops/s) chosen by the seed and held for
		// millions of cycles; 256 breaks the lock and leaves one regime.
		think:    256,
		warm:     1_000_000,
		recorder: true,
		cells: [2]cellSpec{
			{"base", 6_000_000, queueProgram(lr.QueueOptions{Mode: lr.QueueNoLease})},
			{"lease", 12_000_000, queueProgram(lr.QueueOptions{Mode: lr.QueueMultiLease, LeaseTime: leaseTime})},
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// counterProgram is Figure 3's contended counter: a TTS lock (leased for
// the critical section in the lease cell) around load+store of one word.
func counterProgram(leased bool) func(*lr.Machine) program {
	return func(m *lr.Machine) program {
		d := m.Direct()
		ctr := d.Alloc(8)
		lock := lr.NewTTSLock(d)
		if leased {
			lock = lr.NewLeasedLock(lock, leaseTime)
		}
		var incs uint64 // bumped right after the store, with no park between
		return program{
			op: func(_ int, c *lr.Ctx) {
				lock.Lock(c)
				c.Store(ctr, c.Load(ctr)+1)
				incs++
				lock.Unlock(c)
			},
			check: func(m *lr.Machine) error {
				if got := m.Peek(ctr); got != incs {
					return fmt.Errorf("counter word %d != %d completed increments", got, incs)
				}
				return nil
			},
		}
	}
}

// queueProgram is Figure 3's queue: enqueue or dequeue at random.
func queueProgram(opt lr.QueueOptions) func(*lr.Machine) program {
	return func(m *lr.Machine) program {
		d := m.Direct()
		q := lr.NewQueue(d, opt)
		for i := 0; i < queuePrefill; i++ {
			q.Enqueue(d, uint64(i)+1)
		}
		var enq, deq int
		return program{
			op: func(_ int, c *lr.Ctx) {
				if c.Rand().Intn(2) == 0 {
					q.Enqueue(c, 1)
					enq++
				} else if _, ok := q.Dequeue(c); ok {
					deq++
				}
			},
			check: func(m *lr.Machine) error {
				if got, want := q.Len(m.Direct()), queuePrefill+enq-deq; got != want {
					return fmt.Errorf("queue length %d != %d prefilled + %d enqueued - %d dequeued", got, queuePrefill, enq, deq)
				}
				return nil
			},
		}
	}
}

// setProgram is the paper's low-contention mix on a set: 10% insert, 10%
// remove, 80% search on uniform keys.
func setProgram(d *lr.Direct, ins, del, has func(lr.API, uint64) bool, length func(lr.API) int) program {
	size := 0
	for i := 0; i < setPrefill; i++ {
		if ins(d, uint64(d.Rand().Intn(setKeyRange))+1) {
			size++
		}
	}
	return program{
		op: func(_ int, c *lr.Ctx) {
			k := uint64(c.Rand().Intn(setKeyRange)) + 1
			switch c.Rand().Intn(10) {
			case 0:
				if ins(c, k) {
					size++
				}
			case 1:
				if del(c, k) {
					size--
				}
			default:
				has(c, k)
			}
		},
		check: func(m *lr.Machine) error {
			if got := length(m.Direct()); got != size {
				return fmt.Errorf("set holds %d keys, successful inserts - removes = %d", got, size)
			}
			return nil
		},
	}
}

func hashProgram(lease uint64) func(*lr.Machine) program {
	return func(m *lr.Machine) program {
		d := m.Direct()
		h := lr.NewHashMap(d, setKeyRange/4, lease)
		return setProgram(d,
			func(x lr.API, k uint64) bool { return h.Put(x, k, k) },
			h.Delete,
			func(x lr.API, k uint64) bool { _, ok := h.Get(x, k); return ok },
			h.Len)
	}
}

func lfskipProgram(lease uint64) func(*lr.Machine) program {
	return func(m *lr.Machine) program {
		d := m.Direct()
		s := lr.NewLFSkipList(d)
		s.LeaseTime = lease
		return setProgram(d, s.Insert, s.Remove, s.Contains, s.Len)
	}
}
