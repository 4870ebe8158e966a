package core

import (
	"slices"
	"testing"
	"testing/quick"

	"leaserelease/internal/mem"
)

func newT(max int) *Table {
	return NewTable(Config{MaxLeaseTime: 100, MaxNumLeases: max})
}

func TestInsertAndFind(t *testing.T) {
	tb := newT(4)
	e, _, evicted := tb.Insert(1, 50, false)
	if e == nil || evicted {
		t.Fatalf("Insert = (%v, evicted %v), want (entry, false)", e, evicted)
	}
	if f := tb.Find(1); f != e || f.Duration != 50 || f.Started {
		t.Fatalf("Find = %+v, want the inserted entry %+v", f, e)
	}
}

func TestNoLeaseExtension(t *testing.T) {
	tb := newT(4)
	tb.Insert(1, 50, false)
	tb.Start(1, 10)
	e, _, evicted := tb.Insert(1, 99, false)
	if e != nil || evicted {
		t.Fatal("re-leasing an existing line must be a no-op")
	}
	if e := tb.Find(1); e.Deadline != 60 {
		t.Fatalf("deadline changed to %d; extension forbidden", e.Deadline)
	}
}

func TestDurationClampedToMax(t *testing.T) {
	tb := newT(4)
	tb.Insert(1, 1e9, false)
	if e := tb.Find(1); e.Duration != 100 {
		t.Fatalf("duration = %d, want clamp to 100", e.Duration)
	}
}

func TestFIFOEvictionWhenFull(t *testing.T) {
	tb := newT(2)
	tb.Insert(1, 10, false)
	tb.Insert(2, 10, false)
	e, old, evicted := tb.Insert(3, 10, false)
	if e == nil || !evicted || old.Line != 1 {
		t.Fatalf("evicted %v (%v), want oldest (line 1)", old, evicted)
	}
	if tb.Find(1) != nil || tb.Find(2) == nil || tb.Find(3) != e {
		t.Fatal("wrong entries survived")
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
}

// TestFIFOEvictionExactBoundary pins down the off-by-one: filling the
// table to exactly MaxNumLeases evicts nothing; only the entry after that
// evicts, and it evicts precisely the oldest while the rest keep FIFO
// (generation) order.
func TestFIFOEvictionExactBoundary(t *testing.T) {
	const max = 8
	tb := newT(max)
	for i := 1; i <= max; i++ {
		e, old, evicted := tb.Insert(mem.Line(i), 10, false)
		if e == nil || evicted {
			t.Fatalf("insert %d of %d: evicted %v (%v), want no eviction yet", i, max, old, evicted)
		}
	}
	if tb.Len() != max {
		t.Fatalf("Len = %d, want exactly %d", tb.Len(), max)
	}
	e, old, evicted := tb.Insert(mem.Line(max+1), 10, false)
	if e == nil || !evicted || old.Line != 1 {
		t.Fatalf("insert %d: evicted %v (%v), want oldest (line 1)", max+1, old, evicted)
	}
	if tb.Len() != max {
		t.Fatalf("Len after boundary eviction = %d, want %d", tb.Len(), max)
	}
	// Survivors are 2..max+1 in insertion order with strictly increasing
	// generations (the invariant checker's lease-fifo rule).
	want := mem.Line(2)
	lastGen := uint64(0)
	tb.ForEach(func(e *Entry) {
		if e.Line != want {
			t.Fatalf("FIFO order broken: got line %d, want %d", e.Line, want)
		}
		if e.Gen <= lastGen {
			t.Fatalf("generations not strictly increasing: %d after %d", e.Gen, lastGen)
		}
		lastGen = e.Gen
		want++
	})
}

func TestStartSetsDeadline(t *testing.T) {
	tb := newT(4)
	tb.Insert(1, 40, false)
	e := tb.Start(1, 1000)
	if e == nil || e.Deadline != 1040 || !e.Started {
		t.Fatalf("Start = %+v", e)
	}
	if e != tb.Find(1) {
		t.Fatal("Start must return the live entry")
	}
	if tb.Start(1, 2000) != nil {
		t.Fatal("double Start must return nil")
	}
	if tb.Start(99, 0) != nil {
		t.Fatal("Start on absent line must return nil")
	}
}

func TestShouldDefer(t *testing.T) {
	tb := newT(4)
	if tb.ShouldDefer(1, 0) {
		t.Fatal("empty table defers")
	}
	tb.Insert(1, 40, false)
	if tb.ShouldDefer(1, 0) {
		t.Fatal("unstarted single lease must not defer")
	}
	tb.Start(1, 100)
	if !tb.ShouldDefer(1, 120) {
		t.Fatal("started lease must defer before deadline")
	}
	if tb.ShouldDefer(1, 140) {
		t.Fatal("expired lease must not defer (deadline 140)")
	}
}

func TestGroupDefersDuringAcquisition(t *testing.T) {
	tb := newT(4)
	tb.Insert(5, 40, true)
	if !tb.ShouldDefer(5, 0) {
		t.Fatal("group entry must defer during acquisition phase")
	}
}

func TestQueueProbeSingle(t *testing.T) {
	tb := newT(4)
	tb.Insert(1, 40, false)
	if q := tb.QueueProbe(1, "probe-a"); q != tb.Find(1) {
		t.Fatal("QueueProbe must return the entry the probe waits on")
	}
	e, ok := tb.Remove(1)
	if !ok || !e.HasProbe() {
		t.Fatal("probe lost")
	}
	if got := e.TakeProbe(); got != "probe-a" {
		t.Fatalf("TakeProbe = %v", got)
	}
	if e.HasProbe() {
		t.Fatal("TakeProbe did not clear probe")
	}
	// The vacated slot keeps nothing: a new lease in it has no probe.
	tb.Insert(2, 40, false)
	if tb.Find(2).HasProbe() {
		t.Fatal("a reused slot carried the removed entry's probe")
	}
}

func TestSecondProbePanics(t *testing.T) {
	tb := newT(4)
	tb.Insert(1, 40, false)
	tb.QueueProbe(1, "a")
	defer func() {
		if recover() == nil {
			t.Error("second probe on one line did not panic")
		}
	}()
	tb.QueueProbe(1, "b")
}

func TestRemoveIfGen(t *testing.T) {
	tb := newT(4)
	tb.Insert(1, 40, false)
	gen := tb.Find(1).Gen
	if _, ok := tb.RemoveIfGen(1, gen); ok {
		t.Fatal("RemoveIfGen before Start must fail (timer cannot exist)")
	}
	tb.Start(1, 0)
	if _, ok := tb.RemoveIfGen(1, gen+1); ok {
		t.Fatal("stale generation matched")
	}
	if e, ok := tb.RemoveIfGen(1, gen); !ok || e.Line != 1 || e.Gen != gen {
		t.Fatalf("matching generation removed %+v (%v), want line 1 gen %d", e, ok, gen)
	}
	// Re-lease the same line: new generation, stale timer must not fire.
	tb.Insert(1, 40, false)
	tb.Start(1, 0)
	if _, ok := tb.RemoveIfGen(1, gen); ok {
		t.Fatal("old-generation timer removed a fresh lease")
	}
}

// Draining the table with RemoveOldest, as MultiRelease does, yields the
// entries in FIFO order, each a copy that later inserts cannot overwrite.
func TestDrainOldestFirst(t *testing.T) {
	tb := newT(8)
	for l := mem.Line(1); l <= 3; l++ {
		tb.Insert(l, 10, false)
	}
	var out []Entry
	for e, ok := tb.RemoveOldest(); ok; e, ok = tb.RemoveOldest() {
		out = append(out, e)
	}
	if len(out) != 3 || out[0].Line != 1 || out[2].Line != 3 {
		t.Fatalf("drained %v", out)
	}
	if tb.Len() != 0 || tb.Find(2) != nil {
		t.Fatal("table not empty after draining")
	}
	tb.Insert(9, 10, false)
	if out[0].Line != 1 {
		t.Fatal("a removed entry changed when its slot was reused")
	}
}

func TestGroupStartTogether(t *testing.T) {
	tb := newT(8)
	tb.Insert(10, 40, true)
	tb.Insert(20, 40, true)
	tb.Insert(30, 25, true)
	tb.Insert(40, 25, false) // not a group member: StartGroup leaves it alone
	var started []mem.Line
	tb.StartGroup(1000, func(e *Entry) {
		if e != tb.Find(e.Line) || !e.Started {
			t.Errorf("visited %+v, want the live, started entry", e)
		}
		started = append(started, e.Line)
	})
	if len(started) != 3 || started[0] != 10 || started[1] != 20 || started[2] != 30 {
		t.Fatalf("started %v, want the group in acquisition order", started)
	}
	if tb.Find(10).Deadline != 1040 || tb.Find(30).Deadline != 1025 {
		t.Fatal("joint start deadlines wrong")
	}
	if tb.Find(40).Started {
		t.Fatal("StartGroup started a single lease")
	}
	tb.StartGroup(2000, func(e *Entry) { t.Errorf("restarted line %d", e.Line) })
}

func TestRemoveOldest(t *testing.T) {
	tb := newT(4)
	if _, ok := tb.RemoveOldest(); ok {
		t.Fatal("RemoveOldest on empty table must fail")
	}
	tb.Insert(7, 10, false)
	tb.Insert(8, 10, false)
	if e, ok := tb.RemoveOldest(); !ok || e.Line != 7 {
		t.Fatalf("RemoveOldest = %v, want line 7", e)
	}
}

// After NewTable the table allocates nothing: not on insert, not on a FIFO
// eviction, not on any lookup, probe or removal.
func TestTableZeroAlloc(t *testing.T) {
	cfg := DefaultConfig()
	tb := NewTable(cfg)
	probe := new(int)
	next := mem.Line(1)
	insert := func() (evicted bool) {
		_, _, evicted = tb.Insert(next, 100, false)
		next++
		return evicted
	}
	for tb.Len() < cfg.MaxNumLeases {
		insert()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		l := next
		if !insert() { // full: evicts the oldest
			t.Fatal("insert into a full table did not evict")
		}
		e := tb.Start(l, uint64(l))
		tb.ShouldDefer(l, uint64(l)+1)
		tb.QueueProbe(l, probe).TakeProbe()
		tb.RemoveIfGen(l, e.Gen-1) // stale: keeps it
		tb.RemoveIfGen(l, e.Gen)
		l = next
		insert()
		tb.Remove(l)
		tb.RemoveOldest()
		insert()
		insert()
	})
	if allocs != 0 {
		t.Errorf("lease table operations allocate %.1f objects, want 0", allocs)
	}
	if tb.Len() != cfg.MaxNumLeases {
		t.Fatalf("Len = %d, want the loop to leave the table full", tb.Len())
	}
}

// modelEntry and leaseModel mirror Table semantics for the property test.
type modelEntry struct {
	line             mem.Line
	gen              uint64
	started, inGroup bool
}

type leaseModel struct {
	order   []modelEntry // oldest first
	max     int
	nextGen uint64
}

func (m *leaseModel) index(l mem.Line) int {
	for i, x := range m.order {
		if x.line == l {
			return i
		}
	}
	return -1
}

func (m *leaseModel) insert(l mem.Line, inGroup bool) (inserted bool, old modelEntry, evicted bool) {
	if m.index(l) >= 0 {
		return false, modelEntry{}, false
	}
	if len(m.order) >= m.max {
		old, evicted = m.removeAt(0), true
	}
	m.nextGen++
	m.order = append(m.order, modelEntry{line: l, gen: m.nextGen, inGroup: inGroup})
	return true, old, evicted
}

func (m *leaseModel) removeAt(i int) modelEntry {
	x := m.order[i]
	m.order = append(m.order[:i:i], m.order[i+1:]...)
	return x
}

// same reports whether a removed entry is the model's.
func same(e Entry, x modelEntry) bool {
	return e.Line == x.line && e.Gen == x.gen && e.Started == x.started && e.InGroup == x.inGroup
}

// matches reports whether tb holds exactly the model's entries, in the
// model's order, with strictly increasing generations.
func (m *leaseModel) matches(tb *Table) bool {
	i, lastGen, ok := 0, uint64(0), true
	tb.ForEach(func(e *Entry) {
		if i >= len(m.order) || !same(*e, m.order[i]) || e.Gen <= lastGen {
			ok = false
		}
		lastGen = e.Gen
		i++
	})
	if !ok || i != len(m.order) || tb.Len() != len(m.order) {
		return false
	}
	for l := mem.Line(0); l < 8; l++ {
		if (tb.Find(l) != nil) != (m.index(l) >= 0) {
			return false
		}
	}
	return true
}

// TestTableVsModel checks the table against a simple model over random
// operation sequences: after every operation the table's FIFO order,
// generations and start states equal the model's, and every entry an
// operation removes — a FIFO eviction included — is the one the model
// removes.
func TestTableVsModel(t *testing.T) {
	type op struct {
		Kind byte
		L    uint8
	}
	f := func(ops []op) bool {
		tb := NewTable(Config{MaxLeaseTime: 50, MaxNumLeases: 3})
		m := &leaseModel{max: 3}
		for now, o := range ops {
			l := mem.Line(o.L % 8)
			i := m.index(l)
			switch o.Kind % 8 {
			case 0, 1: // single and group insert
				inGroup := o.Kind%8 == 1
				e, old, evicted := tb.Insert(l, 10, inGroup)
				ins, mold, mevicted := m.insert(l, inGroup)
				if (e != nil) != ins || evicted != mevicted || (evicted && !same(old, mold)) {
					return false
				}
			case 2:
				e, ok := tb.Remove(l)
				if ok != (i >= 0) || (ok && !same(e, m.removeAt(i))) {
					return false
				}
			case 3:
				e, ok := tb.RemoveOldest()
				if ok != (len(m.order) > 0) || (ok && !same(e, m.removeAt(0))) {
					return false
				}
			case 4:
				e := tb.Start(l, uint64(now))
				if want := i >= 0 && !m.order[i].started; (e != nil) != want {
					return false
				}
				if e != nil {
					m.order[i].started = true
				}
			case 5:
				var visited, want []mem.Line
				tb.StartGroup(uint64(now), func(e *Entry) { visited = append(visited, e.Line) })
				for j := range m.order {
					if x := &m.order[j]; x.inGroup && !x.started {
						x.started = true
						want = append(want, x.line)
					}
				}
				if !slices.Equal(visited, want) {
					return false
				}
			case 6, 7: // an expiry timer of the current and of a stale generation
				gen := uint64(0)
				if i >= 0 {
					gen = m.order[i].gen
				}
				stale := o.Kind%8 == 7
				if stale {
					gen--
				}
				e, ok := tb.RemoveIfGen(l, gen)
				want := i >= 0 && !stale && m.order[i].started
				if ok != want || (ok && !same(e, m.removeAt(i))) {
					return false
				}
			}
			if !m.matches(tb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// ExpiresBy sees started leases only, and a deadline equal to the asked time
// counts: the expiry timer at that cycle orders before the asker's wake.
func TestExpiresBy(t *testing.T) {
	tb := NewTable(DefaultConfig())
	tb.Insert(1, 100, false)
	if tb.ExpiresBy(1 << 40) {
		t.Fatal("a lease whose countdown has not started has no deadline")
	}
	tb.Start(1, 50) // deadline 150
	tb.Insert(2, 500, false)
	tb.Start(2, 60) // deadline 560
	for now, want := range map[uint64]bool{149: false, 150: true, 151: true} {
		if got := tb.ExpiresBy(now); got != want {
			t.Errorf("ExpiresBy(%d) = %v, want %v", now, got, want)
		}
	}
	tb.Remove(1) // released: its timer is dead and must not count
	if tb.ExpiresBy(559) || !tb.ExpiresBy(560) {
		t.Fatal("after releasing line 1 only line 2's deadline (560) counts")
	}
}

// A lease whose expiry timer was moved ahead of its deadline (the fault
// injector cuts leases short) expires by the timer: in [Timer, Deadline) the
// deadline alone would say nothing is due. StartGroup sets the timer too.
func TestExpiresByFollowsACutTimer(t *testing.T) {
	tb := NewTable(DefaultConfig())
	tb.Insert(1, 100, false)
	e := tb.Start(1, 50)
	if e.Deadline != 150 || e.Timer != 150 {
		t.Fatalf("deadline %d, timer %d; want 150 and 150", e.Deadline, e.Timer)
	}
	e.Timer -= 30
	for now, want := range map[uint64]bool{119: false, 120: true, 149: true, 150: true} {
		if got := tb.ExpiresBy(now); got != want {
			t.Errorf("ExpiresBy(%d) = %v, want %v (timer at 120, deadline 150)", now, got, want)
		}
	}
	if !tb.ShouldDefer(1, 149) {
		t.Error("the cut moved the deadline: a probe at 149 is not deferred")
	}

	tb.Insert(2, 40, true)
	tb.StartGroup(200, func(g *Entry) {
		if g.Timer != 240 {
			t.Errorf("group lease: timer %d, want the deadline 240", g.Timer)
		}
	})
}
