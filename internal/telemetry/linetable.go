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

// txnSlot is the head of an in-flight transaction's record. A core has at
// most one open transaction (Proposition 1), so the span assembler and the
// ledger keep each in a slot indexed by its requesting core, txnCore(id),
// and check the stored ID on every event: an event of a transaction the
// slot does not hold — begun before the subscriber attached, completed
// already, or superseded by the core's next request — is ignored.
type txnSlot struct {
	id   uint64
	open bool
}

func (s *txnSlot) holds(id uint64) bool { return s.open && s.id == id }

// txnSlotFor returns the slot transaction id lives in, growing slots to
// reach it.
func txnSlotFor[T any](slots *[]T, id uint64) *T {
	c := txnCore(id)
	if c >= uint64(len(*slots)) {
		*slots = append(*slots, make([]T, c+1-uint64(len(*slots)))...)
	}
	return &(*slots)[c]
}
