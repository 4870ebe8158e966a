package machine

import "leaserelease/internal/mem"

// Hooks for the external test package (runahead_diff_test.go).

// SyncHits sends every hit of m through Sync by withdrawing the lookahead New
// declared (with none, Proc.RunAhead always declines). Call it before the
// first Run.
func SyncHits(m *Machine) { m.eng.DeclareLookahead(0) }

// SyncMisses sends every miss of m through Sync, so that the thread issues
// it itself after its wake, instead of an event in the wake's place.
func SyncMisses(m *Machine) { m.syncMisses = true }

// ForceSync sends every access of m through Sync: the reference run of the
// differential test. Call it before the first Run.
func ForceSync(m *Machine) {
	SyncHits(m)
	SyncMisses(m)
}

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
