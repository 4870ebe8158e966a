package ds

import (
	"sort"
	"testing"
	"testing/quick"

	"leaserelease/internal/machine"
)

// setOps is the common interface of the low-contention set structures.
type setOps interface {
	ins(x machine.API, k uint64) bool
	del(x machine.API, k uint64) bool
	has(x machine.API, k uint64) bool
	check(x machine.API) error
}

type harrisOps struct{ l *HarrisList }

func (h harrisOps) ins(x machine.API, k uint64) bool { return h.l.Insert(x, k) }
func (h harrisOps) del(x machine.API, k uint64) bool { return h.l.Remove(x, k) }
func (h harrisOps) has(x machine.API, k uint64) bool { return h.l.Contains(x, k) }
func (h harrisOps) check(x machine.API) error        { return h.l.CheckInvariants(x) }

type lazyOps struct{ s *LazySkipList }

func (l lazyOps) ins(x machine.API, k uint64) bool { return l.s.Insert(x, k) }
func (l lazyOps) del(x machine.API, k uint64) bool { return l.s.Remove(x, k) }
func (l lazyOps) has(x machine.API, k uint64) bool { return l.s.Contains(x, k) }
func (l lazyOps) check(x machine.API) error        { return l.s.CheckInvariants(x) }

type bstOps struct{ t *BST }

func (b bstOps) ins(x machine.API, k uint64) bool { return b.t.Insert(x, k) }
func (b bstOps) del(x machine.API, k uint64) bool { return b.t.Delete(x, k) }
func (b bstOps) has(x machine.API, k uint64) bool { return b.t.Contains(x, k) }
func (b bstOps) check(x machine.API) error        { return b.t.CheckInvariants(x) }

type hashOps struct{ h *HashMap }

func (h hashOps) ins(x machine.API, k uint64) bool { return h.h.Put(x, k, k) }
func (h hashOps) del(x machine.API, k uint64) bool { return h.h.Delete(x, k) }
func (h hashOps) has(x machine.API, k uint64) bool { _, ok := h.h.Get(x, k); return ok }
func (h hashOps) check(x machine.API) error        { return nil }

// makers builds each structure in both plain and leased flavours.
func makers() map[string]func(x machine.API, lease uint64) setOps {
	return map[string]func(x machine.API, lease uint64) setOps{
		"harris": func(x machine.API, lease uint64) setOps {
			l := NewHarrisList(x)
			l.LeaseTime = lease
			return harrisOps{l}
		},
		"lazyskip": func(x machine.API, lease uint64) setOps {
			s := NewLazySkipList(x)
			s.LeaseTime = lease
			return lazyOps{s}
		},
		"bst": func(x machine.API, lease uint64) setOps {
			b := NewBST(x)
			b.LeaseTime = lease
			return bstOps{b}
		},
		"hash": func(x machine.API, lease uint64) setOps {
			return hashOps{NewHashMap(x, 64, lease)}
		},
	}
}

// TestSetsSequentialModel drives each set against a map model on one core.
func TestSetsSequentialModel(t *testing.T) {
	for name, mk := range makers() {
		for _, lease := range []uint64{0, 20000} {
			name, mk, lease := name, mk, lease
			t.Run(name, func(t *testing.T) {
				m := newM(1)
				s := mk(m.Direct(), lease)
				m.Spawn(0, func(c *machine.Ctx) {
					model := map[uint64]bool{}
					r := c.Rand()
					for i := 0; i < 400; i++ {
						k := uint64(r.Intn(40) + 1)
						switch r.Intn(3) {
						case 0:
							if s.ins(c, k) == model[k] {
								t.Errorf("%s insert(%d) disagrees with model", name, k)
								return
							}
							model[k] = true
						case 1:
							if s.del(c, k) != model[k] {
								t.Errorf("%s delete(%d) disagrees with model", name, k)
								return
							}
							delete(model, k)
						case 2:
							if s.has(c, k) != model[k] {
								t.Errorf("%s contains(%d) disagrees with model", name, k)
								return
							}
						}
					}
				})
				if err := m.Drain(); err != nil {
					t.Fatal(err)
				}
				if err := s.check(m.Direct()); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSetsConcurrentDisjointKeys gives each thread a disjoint key range so
// per-thread op results are exactly checkable while the structure itself is
// shared and contended.
func TestSetsConcurrentDisjointKeys(t *testing.T) {
	const cores, opsPer, keysPer = 8, 120, 16
	for name, mk := range makers() {
		for _, lease := range []uint64{0, 20000} {
			name, mk, lease := name, mk, lease
			t.Run(name, func(t *testing.T) {
				m := newM(cores)
				s := mk(m.Direct(), lease)
				finalModel := make([]map[uint64]bool, cores)
				for i := 0; i < cores; i++ {
					i := i
					m.Spawn(0, func(c *machine.Ctx) {
						model := map[uint64]bool{}
						finalModel[i] = model
						base := uint64(i*keysPer + 1)
						r := c.Rand()
						for n := 0; n < opsPer; n++ {
							k := base + uint64(r.Intn(keysPer))
							switch r.Intn(3) {
							case 0:
								if s.ins(c, k) == model[k] {
									t.Errorf("%s: core %d insert(%d) wrong", name, i, k)
									return
								}
								model[k] = true
							case 1:
								if s.del(c, k) != model[k] {
									t.Errorf("%s: core %d delete(%d) wrong", name, i, k)
									return
								}
								delete(model, k)
							case 2:
								if s.has(c, k) != model[k] {
									t.Errorf("%s: core %d contains(%d) wrong", name, i, k)
									return
								}
							}
						}
					})
				}
				if err := m.Drain(); err != nil {
					t.Fatal(err)
				}
				if err := s.check(m.Direct()); err != nil {
					t.Fatal(err)
				}
				// Final membership must match the union of the models.
				d := m.Direct()
				for i, model := range finalModel {
					base := uint64(i*keysPer + 1)
					for k := base; k < base+keysPer; k++ {
						if s.has(d, k) != model[k] {
							t.Fatalf("%s: final membership of %d = %v, model %v",
								name, k, s.has(d, k), model[k])
						}
					}
				}
			})
		}
	}
}

// TestSeqSkipListVsSortedSlice property-checks the sequential skiplist
// against a sorted-slice model including DeleteMin order.
func TestSeqSkipListVsSortedSlice(t *testing.T) {
	f := func(keys []uint16) bool {
		if len(keys) > 64 {
			keys = keys[:64]
		}
		m := newM(1)
		d := m.Direct()
		s := NewSeqSkipList(d)
		var model []uint64
		for _, k := range keys {
			key := uint64(k) + 1
			s.Insert(d, key, 0)
			model = append(model, key)
		}
		sort.Slice(model, func(i, j int) bool { return model[i] < model[j] })
		if s.Len(d) != len(model) {
			return false
		}
		for _, want := range model {
			got, ok := s.DeleteMin(d)
			if !ok || got != want {
				return false
			}
		}
		_, ok := s.DeleteMin(d)
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
