package bench

import (
	"leaserelease/internal/ds"
	"leaserelease/internal/locks"
	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
	"leaserelease/internal/multiqueue"
	"leaserelease/internal/stm"
)

// LeaseTime is the lease length used by all workloads, matching §7
// ("MAX_LEASE_TIME ... is set to 20K cycles").
const LeaseTime = 20000

// jitter desynchronizes op streams a little, like real-world think time.
func jitter(c *machine.Ctx) { c.Work(c.Rand().Uint64n(32)) }

// pairOp is the operation most contended workloads loop on: put or take,
// chosen at random, then jitter. The thread's RNG is drawn in that order —
// Intn(2), whatever the chosen operation draws, jitter — and every golden
// depends on it.
func pairOp(put, take OpFunc) OpFunc {
	return func(tid int, c *machine.Ctx) {
		if c.Rand().Intn(2) == 0 {
			put(tid, c)
		} else {
			take(tid, c)
		}
		jitter(c)
	}
}

// prefill64 hands put the values 1..64: the population every stack and
// queue run starts from.
func prefill64(put func(v uint64)) {
	for v := uint64(1); v <= 64; v++ {
		put(v)
	}
}

// PairWorkload: 100% updates, put or take at random on the container newC
// builds, which starts with 1..64 put in (Figures 2 and 3).
func PairWorkload(newC func(x machine.API) ds.Container) func(d *machine.Direct) OpFunc {
	return func(d *machine.Direct) OpFunc {
		s := newC(d)
		prefill64(func(v uint64) { s.Put(d, 0, v) })
		return pairOp(
			func(tid int, c *machine.Ctx) { s.Put(c, tid, 1) },
			func(tid int, c *machine.Ctx) { s.Take(c, tid) })
	}
}

// StackWorkload: the Treiber stack under PairWorkload (Figure 2).
func StackWorkload(opt ds.StackOptions) func(d *machine.Direct) OpFunc {
	return PairWorkload(func(x machine.API) ds.Container { return ds.NewStack(x, opt) })
}

// LockStackWorkload: the same Figure 2 op mix on a sequential stack
// guarded by a global TTS lock — the coarse-grained baseline whose
// throughput collapses hardest when a preempted thread parks inside the
// critical section (the degradation experiment's worst case). The lock
// draws nothing from the RNG, so taking it after pairOp's coin flip is the
// draw order of taking it before.
func LockStackWorkload() func(d *machine.Direct) OpFunc {
	return func(d *machine.Direct) OpFunc {
		l := locks.NewTTS(d)
		s := ds.NewStack(d, ds.StackOptions{})
		prefill64(func(v uint64) { s.Push(d, v) })
		return pairOp(
			func(_ int, c *machine.Ctx) { l.Lock(c); s.Push(c, 1); l.Unlock(c) },
			func(_ int, c *machine.Ctx) { l.Lock(c); s.Pop(c); l.Unlock(c) })
	}
}

// AutoStackWorkload: the plain lease-free Treiber stack run through the
// §8 automatic-lease-insertion wrapper (machine.Auto).
func AutoStackWorkload() func(d *machine.Direct) OpFunc {
	return func(d *machine.Direct) OpFunc {
		s := ds.NewStack(d, ds.StackOptions{})
		prefill64(func(v uint64) { s.Push(d, v) })
		var autos [64]*machine.Auto // per-tid slots
		auto := func(tid int, c *machine.Ctx) *machine.Auto {
			if autos[tid] == nil {
				autos[tid] = machine.NewAuto(c, LeaseTime)
			}
			return autos[tid]
		}
		return pairOp(
			func(tid int, c *machine.Ctx) { s.Push(auto(tid, c), 1) },
			func(tid int, c *machine.Ctx) { s.Pop(auto(tid, c)) })
	}
}

// CounterKind selects the Figure 3 counter variant.
type CounterKind int

const (
	CounterTTS CounterKind = iota
	CounterLeasedTTS
	CounterTicket
	CounterCLH
)

// CounterWorkload: a contended lock protecting a counter (Figure 3 left).
func CounterWorkload(kind CounterKind) func(d *machine.Direct) OpFunc {
	return func(d *machine.Direct) OpFunc {
		ctr := d.Alloc(8)
		inc := func(c *machine.Ctx) { c.Store(ctr, c.Load(ctr)+1) }
		var l locks.TryLock
		switch kind {
		case CounterCLH: // the one lock whose waiters carry a handle
			clh := locks.NewCLH(d)
			var handles [64]*locks.CLHHandle // per-tid slots
			return func(tid int, c *machine.Ctx) {
				h := handles[tid]
				if h == nil {
					h = clh.NewHandle(c)
					handles[tid] = h
				}
				clh.Lock(c, h)
				inc(c)
				clh.Unlock(c, h)
				jitter(c)
			}
		case CounterTicket:
			l = locks.NewTicket(d)
		case CounterLeasedTTS:
			l = locks.NewLeased(locks.NewTTS(d), LeaseTime)
		default:
			l = locks.NewTTS(d)
		}
		return func(tid int, c *machine.Ctx) {
			l.Lock(c)
			inc(c)
			l.Unlock(c)
			jitter(c)
		}
	}
}

// QueueWorkload: the Michael–Scott queue under PairWorkload (Figure 3
// middle).
func QueueWorkload(mode ds.QueueLeaseMode) func(d *machine.Direct) OpFunc {
	return PairWorkload(func(x machine.API) ds.Container {
		return ds.NewQueue(x, ds.QueueOptions{Mode: mode, LeaseTime: LeaseTime})
	})
}

// PQKind selects the Figure 3 priority-queue variant.
type PQKind int

const (
	PQFineLocking  PQKind = iota // Lotan–Shavit over the locking skiplist
	PQGlobalBase                 // global lock, no lease
	PQGlobalLeased               // the paper's lease variant
)

// PQWorkload: 100% updates, insert/deleteMin pairs on random keys
// (Figure 3 right).
func PQWorkload(kind PQKind, prefill int) func(d *machine.Direct) OpFunc {
	return func(d *machine.Direct) OpFunc {
		var pq ds.PQ
		switch kind {
		case PQGlobalBase:
			pq = ds.NewPQGlobal(d, 0)
		case PQGlobalLeased:
			pq = ds.NewPQGlobal(d, LeaseTime)
		default:
			pq = ds.NewPQFine(d)
		}
		for i := 0; i < prefill; i++ {
			pq.Insert(d, d.Rand().Next()>>16|1)
		}
		return pairOp(
			func(_ int, c *machine.Ctx) { pq.Insert(c, c.Rand().Next()>>16|1) },
			func(_ int, c *machine.Ctx) { pq.DeleteMin(c) })
	}
}

// MQWorkload: MultiQueues over 8 queues, alternating insert and deleteMin
// (Figure 4 left).
func MQWorkload(opt multiqueue.Options) func(d *machine.Direct) OpFunc {
	return func(d *machine.Direct) OpFunc {
		q := multiqueue.New(d, 8, 1<<16, opt)
		for i := 0; i < 256; i++ {
			q.Insert(d, d.Rand().Next()>>16|1)
		}
		return pairOp(
			func(_ int, c *machine.Ctx) { q.Insert(c, c.Rand().Next()>>16|1) },
			func(_ int, c *machine.Ctx) { q.DeleteMin(c) })
	}
}

// TL2Workload: transactions updating 2 random objects of 10 (Figure 4
// right / Figure 5 left). aborts receives the cumulative abort count.
func TL2Workload(mode stm.LeaseMode, aborts *uint64) func(d *machine.Direct) OpFunc {
	return func(d *machine.Direct) OpFunc {
		tl := stm.New(d, 10, LeaseTime)
		tl.Mode = mode
		return func(tid int, c *machine.Ctx) {
			i := c.Rand().Intn(10)
			j := c.Rand().Intn(9)
			if j >= i {
				j++
			}
			*aborts += uint64(tl.UpdatePair(c, i, j, 1))
			jitter(c)
		}
	}
}

// ImproperLockWorkload is the §7 "improper use" scenario for the
// prioritization ablation: waiters lease the lock line before try_lock
// but are slow to drop the lease on failure, delaying the owner's unlock.
// With Config.RegularBreaksLease the owner's reset breaks such leases.
func ImproperLockWorkload() func(d *machine.Direct) OpFunc {
	return func(d *machine.Direct) OpFunc {
		l := locks.NewTTS(d)
		ctr := d.Alloc(8)
		return func(tid int, c *machine.Ctx) {
			for {
				if l.TryLock(c) {
					// Owner: plain critical section, no lease — its
					// unlock store is a regular request.
					c.Store(ctr, c.Load(ctr)+1)
					c.Work(30)
					l.Unlock(c)
					return
				}
				// Improper waiter: leases the lock line even though the
				// lock is owned, and dawdles before dropping it — the
				// owner's unlock is deferred behind this lease unless
				// prioritization breaks it.
				c.Lease(l.Addr(), LeaseTime)
				c.Load(l.Addr())
				c.Work(400)
				c.Release(l.Addr())
			}
		}
	}
}

// SetWorkload: 20% updates (10% insert / 10% delete), 80% searches on
// uniform random keys — the paper's low-contention experiment. Each op
// draws its key, then its kind, then the jitter.
func SetWorkload(newSet func(x machine.API) ds.Set, keyRange int, prefill int) func(d *machine.Direct) OpFunc {
	return func(d *machine.Direct) OpFunc {
		s := newSet(d)
		for i := 0; i < prefill; i++ {
			s.Insert(d, uint64(d.Rand().Intn(keyRange))+1)
		}
		return func(tid int, c *machine.Ctx) {
			k := uint64(c.Rand().Intn(keyRange)) + 1
			switch p := c.Rand().Intn(10); {
			case p == 0:
				s.Insert(c, k)
			case p == 1:
				s.Remove(c, k)
			default:
				s.Contains(c, k)
			}
			jitter(c)
		}
	}
}

// SnapshotWorkload: k-word atomic snapshots under write pressure (§5
// cheap snapshots). Half the threads are writers bumping all words under
// a joint lease; the rest snapshot with LeaseCollect or DoubleCollect.
// attempts accumulates retry rounds and snaps the snapshot count (the
// harness's op counter also includes writer iterations).
func SnapshotWorkload(useLease bool, words int, attempts, snaps *uint64) func(d *machine.Direct) OpFunc {
	return func(d *machine.Direct) OpFunc {
		addrs := make([]mem.Addr, words)
		for i := range addrs {
			addrs[i] = d.Alloc(8)
		}
		snap := ds.NewSnapshot(addrs, LeaseTime)
		return func(tid int, c *machine.Ctx) {
			if tid%2 == 0 { // writers keep the words churning
				c.MultiLease(LeaseTime, addrs...)
				for _, a := range addrs {
					c.Store(a, c.Load(a)+1)
				}
				c.ReleaseAll()
				c.Work(1200) // update period: quiet gaps shrink as
				// writer count grows with the thread count
				return
			}
			var n int
			if useLease {
				_, n = snap.LeaseCollect(c)
			} else {
				_, n = snap.DoubleCollect(c)
			}
			*attempts += uint64(n)
			*snaps++
			jitter(c)
		}
	}
}
