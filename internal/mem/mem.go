// Package mem models the simulated physical memory: a flat 64-bit address
// space of 8-byte words, plus a bump allocator that data structures use to
// carve out cache-line-aligned storage.
//
// The store holds architectural values only; all timing (caches, coherence)
// is modeled elsewhere. Addresses are plain uint64s in the simulated
// machine's address space, never host pointers.
package mem

// Addr is a simulated memory address (byte-granular).
type Addr uint64

// Line identifies a cache line (Addr >> LineShift).
type Line uint64

const (
	// LineSize is the cache line size in bytes, matching the paper's
	// Table 1 (64 bytes).
	LineSize = 64
	// LineShift is log2(LineSize).
	LineShift = 6
	// WordSize is the access granularity in bytes.
	WordSize = 8
)

// LineOf returns the cache line containing a.
func LineOf(a Addr) Line { return Line(a >> LineShift) }

// Base returns the first address of the line.
func (l Line) Base() Addr { return Addr(l) << LineShift }

const (
	pageWords = 1 << 12 // 4096 words = 32 KiB per page
	pageShift = 12 + 3  // byte address -> page index shift
)

// Store is the backing word store. The zero value is ready to use; unwritten
// words read as zero. A Store belongs to one simulated machine and is touched
// only by the goroutine running it.
type Store struct {
	pages map[uint64]*[pageWords]uint64 // made on first write
}

// Load returns the 8-byte word at address a. a must be word-aligned.
func (s *Store) Load(a Addr) uint64 {
	checkAligned(a)
	p, ok := s.pages[uint64(a)>>pageShift]
	if !ok {
		return 0
	}
	return p[(uint64(a)>>3)&(pageWords-1)]
}

// Store writes the 8-byte word at address a. a must be word-aligned.
func (s *Store) Store(a Addr, v uint64) {
	checkAligned(a)
	idx := uint64(a) >> pageShift
	p, ok := s.pages[idx]
	if !ok {
		if s.pages == nil {
			s.pages = make(map[uint64]*[pageWords]uint64)
		}
		p = new([pageWords]uint64)
		s.pages[idx] = p
	}
	p[(uint64(a)>>3)&(pageWords-1)] = v
}

func checkAligned(a Addr) {
	if a%WordSize != 0 {
		panic("mem: unaligned word access")
	}
}

// Allocator hands out simulated memory. It is a simple bump allocator:
// simulated programs never free (the paper's benchmarks likewise elide
// memory reclamation; see DESIGN.md).
type Allocator struct {
	next Addr
}

// NewAllocator returns an allocator starting at a non-zero base so that
// address 0 can serve as the simulated NULL.
func NewAllocator() *Allocator {
	return &Allocator{next: LineSize} // skip line 0; addr 0 is NULL
}

// NewAllocatorAt returns an allocator whose arena starts at base. Disjoint
// fixed bases give each simulated core a private arena: the addresses one
// core sees are independent of other cores' allocation activity. base 0 is bumped to LineSize (NULL protection).
func NewAllocatorAt(base Addr) *Allocator {
	if base == 0 {
		base = LineSize
	}
	return &Allocator{next: base}
}

// Alloc returns a word-aligned block of at least size bytes.
func (al *Allocator) Alloc(size uint64) Addr {
	if size == 0 {
		size = WordSize
	}
	size = (size + WordSize - 1) &^ (WordSize - 1)
	a := al.next
	al.next += Addr(size)
	return a
}

// AllocAligned returns a block of at least size bytes starting on a cache
// line boundary and padded to a whole number of lines, so that no two
// AllocAligned blocks share a line. Concurrent data structures use this to
// avoid false sharing, as §7 of the paper prescribes.
func (al *Allocator) AllocAligned(size uint64) Addr {
	if rem := uint64(al.next) % LineSize; rem != 0 {
		al.next += Addr(LineSize - rem)
	}
	a := al.next
	if size == 0 {
		size = WordSize
	}
	size = (size + LineSize - 1) &^ (LineSize - 1)
	al.next += Addr(size)
	return a
}

// Brk returns the current allocation frontier (for diagnostics).
func (al *Allocator) Brk() Addr { return al.next }
