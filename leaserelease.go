// Package leaserelease is a full reimplementation and reproduction of
// "Lease/Release: Architectural Support for Scaling Contended Data
// Structures" (Haider, Hasenplaugh, Alistarh — PPoPP 2016).
//
// It bundles, in pure Go with only the standard library:
//
//   - a deterministic cycle-level multicore simulator (Graphite's role in
//     the paper) with private L1 caches and a directory-based MSI
//     coherence protocol using per-line FIFO request queues;
//   - the Lease/Release mechanism itself: per-core lease tables, bounded
//     single-line leases, hardware MultiLease with globally sorted
//     acquisition, and the software MultiLease emulation;
//   - the paper's data structure suite implemented against simulated
//     memory (Treiber stack, Michael–Scott queue, Lotan–Shavit priority
//     queues, Harris list, lock-based skiplist/BST/hash table, spin-lock
//     family, MultiQueues, a TL2-style STM, and a lock-based Pagerank);
//   - a benchmark harness regenerating every table and figure in the
//     paper's evaluation (see DESIGN.md and EXPERIMENTS.md).
//
// This root package is the public façade: it re-exports the simulator,
// the instruction-set surface (API/Ctx), and the data structure
// constructors, so a user can reproduce the paper's headline experiment
// in a few lines:
//
//	cfg := leaserelease.DefaultConfig(8)
//	m := leaserelease.New(cfg)
//	s := leaserelease.NewStack(m.Direct(), leaserelease.StackOptions{Lease: 20000})
//	for i := 0; i < 8; i++ {
//		m.Spawn(0, func(c *leaserelease.Ctx) {
//			for { s.Push(c, 1); s.Pop(c) }
//		})
//	}
//	m.Run(1_000_000)
//	m.Stop()
//	fmt.Println(m.Stats())
//
// See examples/ for runnable programs and cmd/leasebench for the full
// evaluation driver.
package leaserelease

import (
	"leaserelease/internal/apps/pagerank"
	"leaserelease/internal/bench"
	"leaserelease/internal/ds"
	"leaserelease/internal/locks"
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
	"leaserelease/internal/multiqueue"
	"leaserelease/internal/stm"
)

// Core simulator surface.
type (
	// Machine is a simulated multicore chip.
	Machine = machine.Machine
	// Ctx is a simulated thread's timed view of the machine.
	Ctx = machine.Ctx
	// Direct is the untimed setup accessor.
	Direct = machine.Direct
	// API is the instruction-set surface shared by Ctx and Direct.
	API = machine.API
	// Config describes a simulated machine (Table 1 defaults).
	Config = machine.Config
	// Stats is a snapshot of hardware event counters.
	Stats = machine.Stats
	// Auto wraps a Ctx with §8-style automatic lease insertion.
	Auto = machine.Auto
	// Addr is a simulated memory address.
	Addr = mem.Addr
)

// New builds a simulated machine.
func New(cfg Config) *Machine { return machine.New(cfg) }

// DefaultConfig reproduces the paper's Table 1 system for the given core
// count (1 GHz in-order cores, 32 KB 4-way L1, MSI directory,
// MAX_LEASE_TIME = 20K cycles, MAX_NUM_LEASES = 8).
func DefaultConfig(cores int) Config { return machine.DefaultConfig(cores) }

// Data structures (the paper's evaluation suite).
type (
	// Stack is Treiber's lock-free stack with the Figure 1 lease option.
	Stack = ds.Stack
	// StackOptions selects lease/backoff stack variants.
	StackOptions = ds.StackOptions
	// Queue is the Michael–Scott queue with the Algorithm 3 lease modes.
	Queue = ds.Queue
	// QueueOptions selects the queue variant.
	QueueOptions = ds.QueueOptions
	// PQ is the priority-queue interface of the Figure 3 benchmark.
	PQ = ds.PQ
	// HarrisList is Harris's lock-free sorted list set.
	HarrisList = ds.HarrisList
	// LazySkipList is the fine-grained-locking skiplist set.
	LazySkipList = ds.LazySkipList
	// BST is the leaf-oriented locked binary search tree set.
	BST = ds.BST
	// HashMap is the per-bucket-locked chained hash table.
	HashMap = ds.HashMap
	// EliminationStack is the elimination-backoff stack [39].
	EliminationStack = ds.EliminationStack
	// FCStack is the flat-combining stack [18].
	FCStack = ds.FCStack
	// FCQueue is the flat-combining FIFO queue [18].
	FCQueue = ds.FCQueue
	// LCRQ is the Morrison–Afek fetch&add ring queue [29].
	LCRQ = ds.LCRQ
	// LFSkipList is the lock-free skiplist set [15].
	LFSkipList = ds.LFSkipList
	// NMTree is the Natarajan–Mittal lock-free external BST [31].
	NMTree = ds.NMTree
	// MichaelHashMap is Michael's lock-free hash table [26].
	MichaelHashMap = ds.MichaelHashMap
	// Snapshot is the §5 cheap-snapshot primitive.
	Snapshot = ds.Snapshot
	// Backoff configures exponential backoff.
	Backoff = ds.Backoff
	// MultiQueue is the relaxed priority queue of Figure 4.
	MultiQueue = multiqueue.MultiQueue
	// MultiQueueOptions selects MultiQueue lease strategies.
	MultiQueueOptions = multiqueue.Options
	// TL2 is the TL2-lite transactional memory of Figures 4 and 5.
	TL2 = stm.TL2
	// Pagerank is the CRONO-style lock-based Pagerank of Figure 5.
	Pagerank = pagerank.Pagerank
	// PagerankConfig sizes a Pagerank run.
	PagerankConfig = pagerank.Config
)

// Queue lease modes (Algorithm 3 variants).
const (
	QueueNoLease     = ds.QueueNoLease
	QueueSingleLease = ds.QueueSingleLease
	QueueMultiLease  = ds.QueueMultiLease
)

// TL2 lease modes.
const (
	TL2NoLease     = stm.NoLease
	TL2HWMulti     = stm.HWMulti
	TL2SWMulti     = stm.SWMulti
	TL2SingleFirst = stm.SingleFirst
)

// NewStack allocates a Treiber stack.
func NewStack(x API, opt StackOptions) *Stack { return ds.NewStack(x, opt) }

// NewQueue allocates a Michael–Scott queue.
func NewQueue(x API, opt QueueOptions) *Queue { return ds.NewQueue(x, opt) }

// NewPQFine allocates the fine-grained-locking Lotan–Shavit queue.
func NewPQFine(x API) PQ { return ds.NewPQFine(x) }

// NewPQGlobal allocates the global-lock priority queue; leaseTime > 0
// applies the §6 leased try-lock pattern.
func NewPQGlobal(x API, leaseTime uint64) PQ { return ds.NewPQGlobal(x, leaseTime) }

// NewHarrisList allocates a Harris list.
func NewHarrisList(x API) *HarrisList { return ds.NewHarrisList(x) }

// NewLazySkipList allocates a lazy skiplist set.
func NewLazySkipList(x API) *LazySkipList { return ds.NewLazySkipList(x) }

// NewBST allocates a leaf-oriented BST set.
func NewBST(x API) *BST { return ds.NewBST(x) }

// NewHashMap allocates a striped-lock hash table.
func NewHashMap(x API, buckets int, leaseTime uint64) *HashMap {
	return ds.NewHashMap(x, buckets, leaseTime)
}

// NewEliminationStack allocates an elimination-backoff stack.
func NewEliminationStack(x API, width int) *EliminationStack {
	return ds.NewEliminationStack(x, width)
}

// NewFCStack allocates a flat-combining stack for `threads` participants.
func NewFCStack(x API, threads int) *FCStack {
	return ds.NewFCStack(x, threads)
}

// NewFCQueue allocates a flat-combining queue for `threads` participants.
func NewFCQueue(x API, threads int) *FCQueue {
	return ds.NewFCQueue(x, threads)
}

// NewLCRQ allocates a Morrison–Afek ring queue with the given segment
// size.
func NewLCRQ(x API, ring int) *LCRQ { return ds.NewLCRQ(x, ring) }

// NewLFSkipList allocates a lock-free skiplist set.
func NewLFSkipList(x API) *LFSkipList { return ds.NewLFSkipList(x) }

// NewNMTree allocates a lock-free external BST.
func NewNMTree(x API) *NMTree { return ds.NewNMTree(x) }

// NewMichaelHashMap allocates a lock-free hash table.
func NewMichaelHashMap(x API, buckets int, leaseTime uint64) *MichaelHashMap {
	return ds.NewMichaelHashMap(x, buckets, leaseTime)
}

// NewSnapshot builds a §5 snapshot object.
func NewSnapshot(addrs []Addr, leaseTime uint64) *Snapshot {
	return ds.NewSnapshot(addrs, leaseTime)
}

// NewMultiQueue allocates a MultiQueue over m heaps.
func NewMultiQueue(x API, m, capacity int, opt MultiQueueOptions) *MultiQueue {
	return multiqueue.New(x, m, capacity, opt)
}

// NewTL2 allocates a TL2-lite object set.
func NewTL2(x API, nObjs int, leaseTime uint64) *TL2 { return stm.New(x, nObjs, leaseTime) }

// NewPagerank builds the Figure 5 Pagerank application.
func NewPagerank(d *Direct, cfg PagerankConfig) *Pagerank { return pagerank.New(d, cfg) }

// Locks (the paper's spin-lock family and the §6 leased pattern).
type (
	// TryLock is the lock interface on simulated memory.
	TryLock = locks.TryLock
	// LeasedLock wraps a TryLock with the §6 lease pattern.
	LeasedLock = locks.Leased
	// Barrier is a sense-reversing barrier on simulated memory.
	Barrier = locks.Barrier
)

// NewTTSLock allocates a test&test&set lock.
func NewTTSLock(x API) TryLock { return locks.NewTTS(x) }

// NewTicketLock allocates a ticket lock with proportional backoff.
func NewTicketLock(x API) *locks.Ticket { return locks.NewTicket(x) }

// NewMCSLock allocates an MCS queue lock.
func NewMCSLock(x API) *locks.MCS { return locks.NewMCS(x) }

// NewCLHLock allocates a CLH queue lock.
func NewCLHLock(x API) *locks.CLH { return locks.NewCLH(x) }

// NewLeasedLock wraps a lock with the §6 lease-for-critical-section
// pattern.
func NewLeasedLock(inner TryLock, leaseTime uint64) *LeasedLock {
	return locks.NewLeased(inner, leaseTime)
}

// NewBarrier allocates a barrier for n participants.
func NewBarrier(x API, n int) *Barrier { return locks.NewBarrier(x, n) }

// Benchmarks: the experiment registry that regenerates the paper's tables
// and figures (see cmd/leasebench).
type (
	// Experiment regenerates one table or figure.
	Experiment = bench.Experiment
	// BenchParams controls sweep scale.
	BenchParams = bench.Params
	// BenchResult summarizes one measurement window.
	BenchResult = bench.Result
)

// NewAuto wraps a thread's Ctx with automatic lease insertion (§8 future
// work): it learns hot load→CAS lines and leases them transparently.
func NewAuto(c *Ctx, leaseTime uint64) *Auto { return machine.NewAuto(c, leaseTime) }

// Experiments lists every experiment, in the paper's order.
func Experiments() []Experiment { return bench.All() }

// FindExperiment looks an experiment up by id (e.g. "fig2").
func FindExperiment(id string) (Experiment, bool) { return bench.Find(id) }
