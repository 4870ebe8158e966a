package telemetry

import (
	"iter"

	"leaserelease/internal/mem"
)

// pageRecords is the number of records in one page of a lineTable.
const pageRecords = 256

// lineTable keeps one record T per observed line. The paged line index
// (mem.Index) holds each line's record number + 1, 4 bytes a line, so 0
// means unobserved and line 0 is an ordinary key; an event's lookup is a few
// slice indexings, not a map hash. The records themselves sit densely, in
// first-observed order, in fixed pages that are appended and never copied,
// so a record's pointer stays valid for the table's life. The zero value is
// an empty table.
type lineTable[T any] struct {
	idx   mem.Index[uint32]
	pages []*[pageRecords]T
	n     uint32 // observed lines
}

// get returns l's record, making it (zeroed) on l's first observation.
func (t *lineTable[T]) get(l mem.Line) *T {
	r := t.idx.Slot(l)
	if *r == 0 {
		if t.n%pageRecords == 0 {
			t.pages = append(t.pages, new([pageRecords]T))
		}
		t.n++
		*r = t.n
	}
	return t.record(*r)
}

// find returns l's record, or nil if l was never observed. It makes nothing.
func (t *lineTable[T]) find(l mem.Line) *T {
	if r := t.idx.Find(l); r != nil && *r != 0 {
		return t.record(*r)
	}
	return nil
}

// value returns a copy of l's record, zero if l was never observed.
func (t *lineTable[T]) value(l mem.Line) (v T) {
	if r := t.find(l); r != nil {
		v = *r
	}
	return v
}

// record returns the record an index slot holding r names.
func (t *lineTable[T]) record(r uint32) *T {
	r--
	return &t.pages[r/pageRecords][r%pageRecords]
}

// all visits every observed line and its record in ascending line order.
func (t *lineTable[T]) all() iter.Seq2[mem.Line, *T] {
	return func(yield func(mem.Line, *T) bool) {
		for l, r := range t.idx.All() {
			if *r != 0 && !yield(l, t.record(*r)) {
				return
			}
		}
	}
}
