package machine

import "leaserelease/internal/mem"

// Hooks for the external test package (runahead_diff_test.go).

// ForceSync sends every access of m down the Sync path by withdrawing the
// lookahead New declared (with none, Proc.RunAhead always declines): the
// reference run of the differential test. Call it before the first Run.
func ForceSync(m *Machine) { m.eng.DeclareLookahead(0) }

// MemImage returns every word the setup allocator and the cores' arenas have
// handed out, in address order.
func MemImage(m *Machine) []uint64 {
	var img []uint64
	span := func(from, to mem.Addr) {
		for a := from; a < to; a += mem.WordSize {
			img = append(img, m.store.Load(a))
		}
	}
	span(mem.LineSize, m.alloc.Brk())
	for i, cs := range m.cores {
		span(mem.NewArena(i).Brk(), cs.arena.Brk()) // a fresh arena's frontier is its base
	}
	return img
}
