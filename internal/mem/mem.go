// Package mem models the simulated physical memory: a 2 TiB address space of
// 8-byte words, the bump allocators that data structures use to carve out
// cache-line-aligned storage, and the paged index (Index) the word store and
// the coherence directory keep their per-line records in.
//
// The store holds architectural values only; all timing (caches, coherence)
// is modeled elsewhere. Addresses are plain uint64s in the simulated
// machine's address space, never host pointers.
package mem

import "iter"

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

// The layout of the address space, which the allocators hand out and the
// index pages: the setup allocator bumps up from address 0 through the
// global region below 1 TiB, and core i's arena is the 4 GiB at 1 TiB + i ×
// 4 GiB (NewArena). The space ends at 2 TiB, room for 64 arenas and more;
// nothing is ever handed out beyond it, and an access there panics.
const (
	arenaShift = 32 // an arena spans 4 GiB: one region of the index
	arenasBase = Addr(1) << 40
	spaceShift = 41

	regionLines = arenaShift - LineShift // log2 of the lines in a region
	chunkShift  = 9                      // 512 lines = 32 KiB of address space
	numRegions  = 1 << (spaceShift - arenaShift)
)

// Index maps every line of the address space to a T. It is paged in two
// levels: one region per 4 GiB of the layout above, holding a slice of
// 512-line chunks that grows to the highest chunk touched — dense, since
// allocators bump through a region from its start. The zero value is an
// empty index; a slot nobody has made reads as absent.
type Index[T any] struct {
	regions [numRegions][]*[1 << chunkShift]T
}

func (x *Index[T]) place(l Line) (region, chunk uint64) {
	if l>>(spaceShift-LineShift) != 0 {
		panic("mem: address outside the simulated space")
	}
	return uint64(l) >> regionLines, uint64(l) >> chunkShift & (1<<(regionLines-chunkShift) - 1)
}

// Find returns l's slot, or nil if no slot in its chunk was ever made.
func (x *Index[T]) Find(l Line) *T {
	r, c := x.place(l)
	if chunks := x.regions[r]; c < uint64(len(chunks)) && chunks[c] != nil {
		return &chunks[c][l&(1<<chunkShift-1)]
	}
	return nil
}

// Slot returns l's slot, making its chunk (zeroed) if need be.
func (x *Index[T]) Slot(l Line) *T {
	r, c := x.place(l)
	chunks := x.regions[r]
	if c >= uint64(len(chunks)) {
		chunks = append(chunks, make([]*[1 << chunkShift]T, c+1-uint64(len(chunks)))...)
		x.regions[r] = chunks
	}
	if chunks[c] == nil {
		chunks[c] = new([1 << chunkShift]T)
	}
	return &chunks[c][l&(1<<chunkShift-1)]
}

// All visits every slot of every chunk made so far, in ascending line order.
func (x *Index[T]) All() iter.Seq2[Line, *T] {
	return func(yield func(Line, *T) bool) {
		for r, chunks := range x.regions {
			for c, chunk := range chunks {
				if chunk == nil {
					continue
				}
				first := Line(r)<<regionLines | Line(c)<<chunkShift
				for i := range chunk {
					if !yield(first+Line(i), &chunk[i]) {
						return
					}
				}
			}
		}
	}
}

// Store is the backing word store: the words of each line, kept in the
// index. The zero value is ready to use; unwritten words read as zero. A
// Store belongs to one simulated machine and is touched only by the
// goroutine running it.
type Store struct {
	lines Index[[LineSize / WordSize]uint64]
}

// Load returns the 8-byte word at address a. a must be word-aligned.
func (s *Store) Load(a Addr) uint64 {
	checkAligned(a)
	if w := s.lines.Find(LineOf(a)); w != nil {
		return w[a/WordSize%(LineSize/WordSize)]
	}
	return 0
}

// Store writes the 8-byte word at address a. a must be word-aligned.
func (s *Store) Store(a Addr, v uint64) {
	checkAligned(a)
	s.lines.Slot(LineOf(a))[a/WordSize%(LineSize/WordSize)] = v
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

// NewAllocator returns the setup allocator: it bumps through the global
// region from a non-zero base, so that address 0 can serve as the simulated
// NULL.
func NewAllocator() *Allocator {
	return &Allocator{next: LineSize} // skip line 0; addr 0 is NULL
}

// NewArena returns core's private allocator, whose arena is the 4 GiB at 1
// TiB + core × 4 GiB: the addresses one core sees are independent of other
// cores' allocation activity.
func NewArena(core int) *Allocator {
	return &Allocator{next: arenasBase + Addr(core)<<arenaShift}
}

// AllocAligned returns a block of at least size bytes starting on a cache
// line boundary and padded to a whole number of lines, so that no two
// blocks share a line. Concurrent data structures use this to avoid false
// sharing, as §7 of the paper prescribes. Every allocator starts on a line
// boundary and hands out whole lines, so its frontier stays aligned.
func (al *Allocator) AllocAligned(size uint64) Addr {
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
