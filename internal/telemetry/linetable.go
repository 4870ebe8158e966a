package telemetry

import (
	"iter"

	"leaserelease/internal/mem"
)

// lineTable keeps one T per observed line as a value in a paged line index
// (mem.Index): an event's lookup is a few slice indexings, not a map hash,
// and nothing is allocated once the line's 512-line chunk exists. Whether a
// line was observed is a bit beside its T, not a zero test on the line,
// because line 0 is an ordinary key. The zero value is an empty table.
type lineTable[T any] struct {
	idx mem.Index[lineSlot[T]]
	n   int // observed lines
}

type lineSlot[T any] struct {
	v    T
	seen bool
}

// get returns l's value, and whether this call made it.
func (t *lineTable[T]) get(l mem.Line) (v *T, made bool) {
	s := t.idx.Slot(l)
	if !s.seen {
		s.seen, made = true, true
		t.n++
	}
	return &s.v, made
}

// find returns l's value, or nil if l was never observed. It makes nothing.
func (t *lineTable[T]) find(l mem.Line) *T {
	if s := t.idx.Find(l); s != nil && s.seen {
		return &s.v
	}
	return nil
}

// all visits every observed line's value in ascending line order.
func (t *lineTable[T]) all() iter.Seq[*T] {
	return func(yield func(*T) bool) {
		for _, s := range t.idx.All() {
			if s.seen && !yield(&s.v) {
				return
			}
		}
	}
}
