package mem

import (
	"testing"
	"testing/quick"
)

func TestStoreLoadRoundTrip(t *testing.T) {
	var s Store
	s.Store(64, 42)
	if got := s.Load(64); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
	if got := s.Load(72); got != 0 {
		t.Fatalf("unwritten word = %d, want 0", got)
	}
}

func TestStoreAcrossPages(t *testing.T) {
	var s Store
	addrs := []Addr{8, 1 << 15, 1 << 20, 1 << 33, 1<<40 + 64}
	for i, a := range addrs {
		s.Store(a, uint64(i)+100)
	}
	for i, a := range addrs {
		if got := s.Load(a); got != uint64(i)+100 {
			t.Fatalf("Load(%#x) = %d, want %d", a, got, i+100)
		}
	}
}

func TestStoreUnalignedPanics(t *testing.T) {
	var s Store
	defer func() {
		if recover() == nil {
			t.Error("unaligned access did not panic")
		}
	}()
	s.Load(3)
}

func TestStorePropertyModel(t *testing.T) {
	// Random store/load sequences agree with a map model.
	f := func(ops []struct {
		A uint16
		V uint64
	}) bool {
		var s Store
		model := map[Addr]uint64{}
		for _, op := range ops {
			a := Addr(op.A) * WordSize
			s.Store(a, op.V)
			model[a] = op.V
		}
		for a, v := range model {
			if s.Load(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLineMath(t *testing.T) {
	if LineOf(0) != 0 || LineOf(63) != 0 || LineOf(64) != 1 {
		t.Fatal("LineOf boundaries wrong")
	}
	if Line(3).Base() != 192 {
		t.Fatalf("Line(3).Base() = %d, want 192", Line(3).Base())
	}
}

func TestAllocNonOverlapping(t *testing.T) {
	al := NewAllocator()
	a := al.AllocAligned(24)
	b := al.AllocAligned(8)
	if a == 0 {
		t.Fatal("allocation returned NULL address")
	}
	if b < a+24 {
		t.Fatalf("blocks overlap: a=%d (24 bytes), b=%d", a, b)
	}
}

func TestAllocAlignedNoFalseSharing(t *testing.T) {
	al := NewAllocator()
	a := al.AllocAligned(8)
	b := al.AllocAligned(70)
	c := al.AllocAligned(8)
	if a%LineSize != 0 || b%LineSize != 0 || c%LineSize != 0 {
		t.Fatal("AllocAligned not line aligned")
	}
	if LineOf(a) == LineOf(b) || LineOf(b) == LineOf(c) || LineOf(b+64) == LineOf(c) {
		t.Fatal("AllocAligned blocks share a cache line")
	}
}

func TestAllocProperty(t *testing.T) {
	// Allocations are disjoint and line aligned for arbitrary size
	// sequences, from the setup allocator and from a core's arena alike.
	f := func(sizes []uint16, arena bool) bool {
		al := NewAllocator()
		if arena {
			al = NewArena(3)
		}
		var prevEnd Addr
		for _, sz := range sizes {
			a := al.AllocAligned(uint64(sz))
			if a < prevEnd || a == 0 {
				return false
			}
			n := uint64(sz)
			if n == 0 {
				n = WordSize
			}
			prevEnd = a + Addr(n)
			if a%LineSize != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// indexKeys are the lines TestIndexPropertyModel draws from: the global
// region, the first lines of several core arenas, both sides of chunk and
// region edges, and the top of the address space.
func indexKeys() []Line {
	keys := []Line{0, 1, 511, 512, 513, 1<<26 - 1, 1 << 26, 1<<26 + 1, 1<<34 - 1, 1 << 34, 1<<35 - 1}
	for _, core := range []int{0, 1, 7, 63} {
		l := LineOf(NewArena(core).Brk())
		keys = append(keys, l, l+1, l+511, l+512, l+1<<26-1)
	}
	return keys
}

// TestIndexPropertyModel: random writes and reads of the paged index agree
// with a map, a slot nobody made reads as absent or zero, and All visits every
// made slot once, in ascending order.
func TestIndexPropertyModel(t *testing.T) {
	keys := indexKeys()
	f := func(ops []struct {
		K     uint8
		Down  uint16
		V     uint64
		Write bool
	}) bool {
		var x Index[uint64]
		model := map[Line]uint64{}
		for _, op := range ops {
			l := keys[int(op.K)%len(keys)]
			l -= min(l, Line(op.Down%1100)) // reach across chunk edges below the key
			if op.Write {
				*x.Slot(l) = op.V
				model[l] = op.V
				continue
			}
			var got uint64
			if p := x.Find(l); p != nil {
				got = *p
			}
			if got != model[l] {
				return false
			}
		}
		var prev Line
		seen := 0
		for l, p := range x.All() {
			if seen > 0 && l <= prev {
				return false
			}
			if v, ok := model[l]; (ok && *p != v) || (!ok && *p != 0) || p != x.Find(l) {
				return false
			}
			if _, ok := model[l]; ok {
				seen++
			}
			prev = l
		}
		return seen == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestOutOfSpacePanics: an address beyond the 2 TiB the allocators can hand
// out is rejected, as an unaligned one is; the last word below it is not.
func TestOutOfSpacePanics(t *testing.T) {
	var s Store
	top := Addr(1) << 41
	s.Store(top-WordSize, 7)
	if got := s.Load(top - WordSize); got != 7 {
		t.Fatalf("top word reads %d, want 7", got)
	}
	for _, f := range []func(){
		func() { s.Load(top) },
		func() { s.Store(top, 1) },
		func() { new(Index[int]).Find(LineOf(top)) },
		func() { new(Index[int]).Slot(^Line(0)) },
	} {
		func() {
			defer func() {
				if r := recover(); r != "mem: address outside the simulated space" {
					t.Errorf("recovered %v, want the out-of-space panic", r)
				}
			}()
			f()
		}()
	}
}

// TestArenaLayout: core i's arena is the 4 GiB at 1 TiB + i × 4 GiB, all 64
// of them inside the space, and the setup allocator starts above NULL.
func TestArenaLayout(t *testing.T) {
	for core := 0; core < 64; core++ {
		if base, want := NewArena(core).Brk(), Addr(1)<<40+Addr(core)<<32; base != want {
			t.Fatalf("arena %d starts at %#x, want %#x", core, base, want)
		}
	}
	var s Store
	s.Store(NewArena(63).Brk()+1<<32-WordSize, 1) // the last arena's last word
	if NewAllocator().Brk() != LineSize {
		t.Fatal("the setup allocator hands out line 0")
	}
}
