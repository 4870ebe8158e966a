package machine

import (
	"testing"

	"leaserelease/internal/mem"
)

// spawnListWalkers starts n threads, each walking its own circular linked
// list of the given number of lines for ever: once the first pass has
// brought the list in, every access is an L1 hit, a few cycles after the
// last one — the shape of a skiplist or list traversal (the benchmark's
// lfskip16).
func spawnListWalkers(m *Machine, n, lines int) {
	d := m.Direct()
	for i := 0; i < n; i++ {
		nodes := make([]mem.Addr, lines)
		for j := range nodes {
			nodes[j] = d.Alloc(8)
		}
		for j, a := range nodes {
			d.Store(a, uint64(nodes[(j+1)%lines]))
		}
		head := nodes[0]
		m.Spawn(0, func(c *Ctx) {
			for a := head; ; a = mem.Addr(c.Load(a)) {
				c.Work(2)
			}
		})
	}
}

// BenchmarkHitRun16 measures the host cost of an L1 hit with 16 threads
// running: per access, with all lists resident. With more than a handful of
// threads something is always due before a thread's local clock, so a hit
// that parks costs a heap push, a pop and usually a switch to another
// thread and back; a hit that runs ahead costs none of it. Run with -cpu
// 1,2,4: nothing here is visible to the Go scheduler, the columns agree.
func BenchmarkHitRun16(b *testing.B) {
	const threads, lines, cyclesPerAccess = 16, 64, 3 // Work(2) + the hit
	m := New(testConfig(threads))
	spawnListWalkers(m, threads, lines)
	if err := m.Run(20_000); err != nil { // bring the lists in
		b.Fatal(err)
	}
	hits := m.Stats().L1Hits
	b.ReportAllocs()
	b.ResetTimer()
	if err := m.Run(m.Now() + uint64(b.N)*cyclesPerAccess/threads + 1); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(m.Stats().L1Hits-hits)/float64(b.N), "hits/op")
	m.Stop()
}

// BenchmarkMissRun64 measures the host cost of a simulated cycle with 64
// cores that miss on most accesses (the benchmark's hash64 without its
// locks): each thread loads a random line of a region 16 times its L1 and
// thinks for up to 32 cycles, so 64 requests are nearly always in flight
// through the directory. Every line is touched in the warm-up, so the
// window makes no line record. ns/op is per simulated cycle.
func BenchmarkMissRun64(b *testing.B) {
	const threads, lines = 64, 8192
	m := New(testConfig(threads))
	region := m.Direct().Alloc(lines * mem.LineSize)
	for i := 0; i < threads; i++ {
		m.Spawn(0, func(c *Ctx) {
			for {
				c.Load(region + mem.Addr(c.Rand().Uint64n(lines)*mem.LineSize))
				c.Work(c.Rand().Uint64n(32))
			}
		})
	}
	if err := m.Run(200_000); err != nil {
		b.Fatal(err)
	}
	st := m.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	if err := m.Run(m.Now() + uint64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	w := m.Stats().Sub(st)
	b.ReportMetric(float64(w.L1Misses)/float64(w.L1Misses+w.L1Hits), "miss-ratio")
	m.Stop()
}

// BenchmarkSpin64 measures the host cost of a simulated cycle of Figure 3's
// plain baseline: 64 cores contending for one test-and-test-and-set lock,
// 63 of them waiting on a read of the lock word (Ctx.Spin). A waiter parked
// on its Shared copy costs nothing until the holder's unlock invalidates
// it; ns/op is per simulated cycle.
func BenchmarkSpin64(b *testing.B) {
	const threads = 64
	m := New(testConfig(threads))
	lock, ctr := m.Direct().Alloc(8), m.Direct().Alloc(8)
	for i := 0; i < threads; i++ {
		m.Spawn(0, func(c *Ctx) {
			for {
				for u := c.Load(lock); u != 0; u = c.Spin(lock, u, 4) {
				}
				if c.Swap(lock, 1) != 0 {
					continue
				}
				c.Store(ctr, c.Load(ctr)+1)
				c.Store(lock, 0)
				c.Work(c.Rand().Uint64n(64))
			}
		})
	}
	if err := m.Run(50_000); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := m.Run(m.Now() + uint64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(m.EngineStats().SpinLoadsElided)/float64(m.Now()), "elided/cycle")
	m.Stop()
}
