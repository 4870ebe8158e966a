package cache

import (
	"testing"
	"testing/quick"

	"leaserelease/internal/mem"
)

// tiny returns a 4-line, 2-way cache (2 sets) for eviction tests.
func tiny() *Cache { return New(Config{SizeBytes: 4 * mem.LineSize, Ways: 2}) }

func TestLookupStates(t *testing.T) {
	c := tiny()
	l := mem.Line(8)
	if c.Lookup(l, false) {
		t.Fatal("hit on empty cache")
	}
	c.Install(l, Shared)
	if !c.Lookup(l, false) {
		t.Fatal("read miss on Shared line")
	}
	if c.Lookup(l, true) {
		t.Fatal("write hit on Shared line")
	}
	c.Install(l, Modified)
	if !c.Lookup(l, true) || !c.Lookup(l, false) {
		t.Fatal("miss on Modified line")
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny()
	// Lines 0, 2, 4 map to set 0 (2 sets => even lines to set 0).
	c.Install(mem.Line(0), Shared)
	c.Install(mem.Line(2), Shared)
	c.Lookup(mem.Line(0), false) // make line 2 the LRU
	v, st, ev := c.Install(mem.Line(4), Modified)
	if !ev || v != mem.Line(2) || st != Shared {
		t.Fatalf("evicted (%v,%v,%v), want line 2 Shared", v, st, ev)
	}
	if c.State(mem.Line(0)) != Shared || c.State(mem.Line(4)) != Modified {
		t.Fatal("survivors have wrong state")
	}
}

func TestPinnedNotEvicted(t *testing.T) {
	c := tiny()
	c.Install(mem.Line(0), Modified)
	c.Pin(mem.Line(0))
	c.Install(mem.Line(2), Shared)
	c.Lookup(mem.Line(2), false)
	// Line 0 is LRU but pinned: line 2 must be the victim.
	v, _, ev := c.Install(mem.Line(4), Shared)
	if !ev || v != mem.Line(2) {
		t.Fatalf("victim = (%v, %v), want line 2", v, ev)
	}
	if c.State(mem.Line(0)) != Modified {
		t.Fatal("pinned line was evicted")
	}
}

func TestAllPinnedDetected(t *testing.T) {
	c := tiny()
	c.Install(mem.Line(0), Modified)
	c.Install(mem.Line(2), Modified)
	c.Pin(mem.Line(0))
	c.Pin(mem.Line(2))
	_, _, allPinned := c.Victim(mem.Line(4))
	if !allPinned {
		t.Fatal("Victim did not report fully pinned set")
	}
	defer func() {
		if recover() == nil {
			t.Error("Install into fully pinned set did not panic")
		}
	}()
	c.Install(mem.Line(4), Shared)
}

func TestDowngrade(t *testing.T) {
	c := tiny()
	c.Install(mem.Line(1), Modified)
	c.Downgrade(mem.Line(1), Shared)
	if c.State(mem.Line(1)) != Shared {
		t.Fatal("M->S downgrade failed")
	}
	c.Downgrade(mem.Line(1), Invalid)
	if c.State(mem.Line(1)) != Invalid {
		t.Fatal("S->I downgrade failed")
	}
	c.Downgrade(mem.Line(99), Invalid) // absent: must not panic
}

func TestDowngradeClearsPin(t *testing.T) {
	c := tiny()
	c.Install(mem.Line(1), Modified)
	c.Pin(mem.Line(1))
	c.Downgrade(mem.Line(1), Invalid)
	if c.Pinned(mem.Line(1)) {
		t.Fatal("pin survived invalidation")
	}
}

func TestInstallUpgradesInPlace(t *testing.T) {
	c := tiny()
	c.Install(mem.Line(0), Shared)
	_, _, ev := c.Install(mem.Line(0), Modified)
	if ev {
		t.Fatal("upgrade evicted something")
	}
	if c.State(mem.Line(0)) != Modified {
		t.Fatal("upgrade did not stick")
	}
}

func TestStatsCount(t *testing.T) {
	c := tiny()
	c.Lookup(mem.Line(0), false) // miss
	c.Install(mem.Line(0), Shared)
	c.Lookup(mem.Line(0), false) // hit
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid geometry did not panic")
		}
	}()
	New(Config{SizeBytes: 3 * mem.LineSize, Ways: 2})
}

// TestVsModel drives random installs/lookups/downgrades against a map-based
// model of a fully-associative-per-set cache and checks state agreement.
func TestVsModel(t *testing.T) {
	type op struct {
		Kind byte
		L    uint8
	}
	f := func(ops []op) bool {
		c := New(Config{SizeBytes: 8 * mem.LineSize, Ways: 4}) // 2 sets
		model := map[mem.Line]State{}
		inSet := func(set uint64) []mem.Line {
			var ls []mem.Line
			for l := range model {
				if uint64(l)&1 == set {
					ls = append(ls, l)
				}
			}
			return ls
		}
		for _, o := range ops {
			l := mem.Line(o.L % 16)
			switch o.Kind % 3 {
			case 0: // install M
				c.Install(l, Modified)
				if len(inSet(uint64(l)&1)) >= 4 {
					// An eviction happened; drop whatever the cache dropped.
					for k := range model {
						if uint64(k)&1 == uint64(l)&1 && c.State(k) == Invalid {
							delete(model, k)
						}
					}
				}
				model[l] = Modified
			case 1: // downgrade to I
				c.Downgrade(l, Invalid)
				delete(model, l)
			case 2: // downgrade to S
				c.Downgrade(l, Shared)
				if model[l] == Modified {
					model[l] = Shared
				}
			}
			if got, want := c.State(l), model[l]; got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Holds answers what Lookup would, and leaves the cache as it found it.
func TestHoldsHasNoSideEffects(t *testing.T) {
	c := New(Config{SizeBytes: 2 * mem.LineSize, Ways: 2}) // one set, two ways
	c.Install(1, Shared)
	c.Install(2, Modified)
	for _, tc := range []struct {
		l     mem.Line
		write bool
		want  bool
	}{{1, false, true}, {1, true, false}, {2, false, true}, {2, true, true}, {3, false, false}} {
		if got := c.Holds(tc.l, tc.write); got != tc.want {
			t.Errorf("Holds(%d, write=%v) = %v, want %v", tc.l, tc.write, got, tc.want)
		}
	}
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatalf("Holds counted %d hits and %d misses", c.Hits, c.Misses)
	}
	// Line 1 is still the least recently used: probing it did not touch LRU.
	if victim, evict, _ := c.Victim(3); !evict || victim != 1 {
		t.Fatalf("victim = %d (evict %v), want line 1", victim, evict)
	}
}
