package ds

import (
	"sort"
	"testing"

	"leaserelease/internal/machine"
)

func pqVariants() map[string]func(x machine.API) PQ {
	return map[string]func(x machine.API) PQ{
		"fine":          func(x machine.API) PQ { return NewPQFine(x) },
		"global":        func(x machine.API) PQ { return NewPQGlobal(x, 0) },
		"global-leased": func(x machine.API) PQ { return NewPQGlobal(x, 20000) },
	}
}

func TestPQSequentialOrder(t *testing.T) {
	for name, mk := range pqVariants() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			m := newM(1)
			pq := mk(m.Direct())
			keys := []uint64{50, 20, 90, 10, 70, 30}
			var out []uint64
			m.Spawn(0, func(c *machine.Ctx) {
				for _, k := range keys {
					pq.Insert(c, k)
				}
				for range keys {
					v, ok := pq.DeleteMin(c)
					if !ok {
						t.Error("premature empty")
						return
					}
					out = append(out, v)
				}
				if _, ok := pq.DeleteMin(c); ok {
					t.Error("DeleteMin on empty returned a value")
				}
			})
			if err := m.Drain(); err != nil {
				t.Fatal(err)
			}
			want := append([]uint64(nil), keys...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for i := range want {
				if out[i] != want[i] {
					t.Fatalf("order = %v, want %v", out, want)
				}
			}
		})
	}
}

// TestPQConcurrentConservation: every inserted key is deleted exactly once
// or remains; nothing is lost or duplicated.
func TestPQConcurrentConservation(t *testing.T) {
	const cores, per = 8, 30
	for name, mk := range pqVariants() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			m := newM(cores)
			pq := mk(m.Direct())
			removed := make([][]uint64, cores)
			for i := 0; i < cores; i++ {
				i := i
				m.Spawn(0, func(c *machine.Ctx) {
					for n := 0; n < per; n++ {
						// Unique keys: (thread, n) in the high bits keeps
						// priorities random-ish via the low bits.
						k := uint64(c.Rand().Intn(1<<20))<<20 | uint64(i)<<32 | uint64(n+1)
						pq.Insert(c, k)
						if v, ok := pq.DeleteMin(c); ok {
							removed[i] = append(removed[i], v)
						}
					}
				})
			}
			if err := m.Drain(); err != nil {
				t.Fatal(err)
			}
			seen := map[uint64]int{}
			total := 0
			for _, rs := range removed {
				for _, v := range rs {
					seen[v]++
					total++
				}
			}
			d := m.Direct()
			for {
				v, ok := pq.DeleteMin(d)
				if !ok {
					break
				}
				seen[v]++
				total++
			}
			if total != cores*per {
				t.Fatalf("inserted %d, accounted %d", cores*per, total)
			}
			for v, n := range seen {
				if n != 1 {
					t.Fatalf("key %#x seen %d times", v, n)
				}
			}
		})
	}
}

// TestPQGlobalLeaseBeatsFine reproduces the Figure 3 priority-queue
// direction at 8 threads: the leased global-lock queue outperforms the
// fine-grained locking baseline under 100% updates.
func TestPQGlobalLeaseBeatsFine(t *testing.T) {
	run := func(mk func(x machine.API) PQ) uint64 {
		m := newM(8)
		pq := mk(m.Direct())
		d := m.Direct()
		for i := 0; i < 256; i++ { // prefill so DeleteMin has work
			pq.Insert(d, uint64(d.Rand().Intn(1<<30))+1)
		}
		var ops uint64
		for i := 0; i < 8; i++ {
			m.Spawn(0, func(c *machine.Ctx) {
				for {
					pq.Insert(c, uint64(c.Rand().Intn(1<<30))+1)
					pq.DeleteMin(c)
					ops += 2
				}
			})
		}
		if err := m.Run(400000); err != nil {
			t.Fatal(err)
		}
		m.Stop()
		return ops
	}
	fine := run(func(x machine.API) PQ { return NewPQFine(x) })
	leased := run(func(x machine.API) PQ { return NewPQGlobal(x, 20000) })
	if leased <= fine {
		t.Fatalf("leased global PQ %d <= fine-grained %d at 8 threads", leased, fine)
	}
}
