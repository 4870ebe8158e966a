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
// the instruction-set surface (API/Ctx), and the constructors that
// examples/quickstart and benchmarks/leaseperf use, so a user can reproduce
// the paper's headline experiment in a few lines:
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
// examples/quickstart runs it with and without leases. Every figure of the
// evaluation is a declared experiment of cmd/leasebench, which runs it whole
// (-exp <id>) or cell by cell (-cell <pattern>).
package leaserelease

import (
	"leaserelease/internal/ds"
	"leaserelease/internal/locks"
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
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
	// HashMap is the per-bucket-locked chained hash table.
	HashMap = ds.HashMap
	// LFSkipList is the lock-free skiplist set [15].
	LFSkipList = ds.LFSkipList
)

// Queue lease modes (Algorithm 3 variants).
const (
	QueueNoLease    = ds.QueueNoLease
	QueueMultiLease = ds.QueueMultiLease
)

// NewStack allocates a Treiber stack.
func NewStack(x API, opt StackOptions) *Stack { return ds.NewStack(x, opt) }

// NewQueue allocates a Michael–Scott queue.
func NewQueue(x API, opt QueueOptions) *Queue { return ds.NewQueue(x, opt) }

// NewHashMap allocates a striped-lock hash table.
func NewHashMap(x API, buckets int, leaseTime uint64) *HashMap {
	return ds.NewHashMap(x, buckets, leaseTime)
}

// NewLFSkipList allocates a lock-free skiplist set.
func NewLFSkipList(x API) *LFSkipList { return ds.NewLFSkipList(x, 0) }

// Locks (the §6 leased pattern over a test&test&set lock).
type (
	// TryLock is the lock interface on simulated memory.
	TryLock = locks.TryLock
	// LeasedLock wraps a TryLock with the §6 lease pattern.
	LeasedLock = locks.Leased
)

// NewTTSLock allocates a test&test&set lock.
func NewTTSLock(x API) TryLock { return locks.NewTTS(x) }

// NewLeasedLock wraps a lock with the §6 lease-for-critical-section
// pattern.
func NewLeasedLock(inner TryLock, leaseTime uint64) *LeasedLock {
	return locks.NewLeased(inner, leaseTime)
}
