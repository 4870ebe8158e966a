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
