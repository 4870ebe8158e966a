package core

import (
	"testing"
	"testing/quick"

	"leaserelease/internal/mem"
)

func newT(max int) *Table {
	return NewTable(Config{MaxLeaseTime: 100, MaxNumLeases: max})
}

func TestInsertAndFind(t *testing.T) {
	tb := newT(4)
	ev, ins := tb.Insert(1, 50, false)
	if ev != nil || !ins {
		t.Fatalf("Insert = (%v, %v), want (nil, true)", ev, ins)
	}
	e := tb.Find(1)
	if e == nil || e.Duration != 50 || e.Started {
		t.Fatalf("Find = %+v", e)
	}
}

func TestNoLeaseExtension(t *testing.T) {
	tb := newT(4)
	tb.Insert(1, 50, false)
	tb.Start(1, 10)
	ev, ins := tb.Insert(1, 99, false)
	if ins || ev != nil {
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
	ev, ins := tb.Insert(3, 10, false)
	if !ins || ev == nil || ev.Line != 1 {
		t.Fatalf("evicted = %v, want oldest (line 1)", ev)
	}
	if tb.Find(1) != nil || tb.Find(2) == nil || tb.Find(3) == nil {
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
		ev, ins := tb.Insert(mem.Line(i), 10, false)
		if !ins || ev != nil {
			t.Fatalf("insert %d of %d: (ev=%v, ins=%v), want no eviction yet", i, max, ev, ins)
		}
	}
	if tb.Len() != max {
		t.Fatalf("Len = %d, want exactly %d", tb.Len(), max)
	}
	ev, ins := tb.Insert(mem.Line(max+1), 10, false)
	if !ins || ev == nil || ev.Line != 1 {
		t.Fatalf("insert %d: evicted %v, want oldest (line 1)", max+1, ev)
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
	tb.QueueProbe(1, "probe-a")
	e := tb.Remove(1)
	if e == nil || !e.HasProbe() {
		t.Fatal("probe lost")
	}
	if got := e.TakeProbe(); got != "probe-a" {
		t.Fatalf("TakeProbe = %v", got)
	}
	if e.HasProbe() {
		t.Fatal("TakeProbe did not clear probe")
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
	if tb.RemoveIfGen(1, gen) != nil {
		t.Fatal("RemoveIfGen before Start must be nil (timer cannot exist)")
	}
	tb.Start(1, 0)
	if tb.RemoveIfGen(1, gen+1) != nil {
		t.Fatal("stale generation matched")
	}
	if tb.RemoveIfGen(1, gen) == nil {
		t.Fatal("matching generation did not remove")
	}
	// Re-lease the same line: new generation, stale timer must not fire.
	tb.Insert(1, 40, false)
	tb.Start(1, 0)
	if tb.RemoveIfGen(1, gen) != nil {
		t.Fatal("old-generation timer removed a fresh lease")
	}
}

func TestRemoveAllOrder(t *testing.T) {
	tb := newT(8)
	for l := mem.Line(1); l <= 3; l++ {
		tb.Insert(l, 10, false)
	}
	out := tb.RemoveAll()
	if len(out) != 3 || out[0].Line != 1 || out[2].Line != 3 {
		t.Fatalf("RemoveAll = %v", out)
	}
	if tb.Len() != 0 || tb.Find(2) != nil {
		t.Fatal("table not empty after RemoveAll")
	}
}

func TestGroupStartTogether(t *testing.T) {
	tb := newT(8)
	tb.Insert(10, 40, true)
	tb.Insert(20, 40, true)
	tb.Insert(30, 25, true)
	if got := tb.GroupPending(); got != 3 {
		t.Fatalf("GroupPending = %d, want 3", got)
	}
	started := tb.StartGroup(1000)
	if len(started) != 3 {
		t.Fatalf("started %d, want 3", len(started))
	}
	if tb.GroupPending() != 0 {
		t.Fatal("entries still pending after StartGroup")
	}
	if tb.Find(10).Deadline != 1040 || tb.Find(30).Deadline != 1025 {
		t.Fatal("joint start deadlines wrong")
	}
	lines := tb.GroupLines()
	if len(lines) != 3 || lines[0] != 10 || lines[1] != 20 || lines[2] != 30 {
		t.Fatalf("GroupLines = %v", lines)
	}
}

func TestRemoveOldest(t *testing.T) {
	tb := newT(4)
	if tb.RemoveOldest() != nil {
		t.Fatal("RemoveOldest on empty table must be nil")
	}
	tb.Insert(7, 10, false)
	tb.Insert(8, 10, false)
	if e := tb.RemoveOldest(); e == nil || e.Line != 7 {
		t.Fatalf("RemoveOldest = %v, want line 7", e)
	}
}

// leaseModel mirrors Table semantics for the property test.
type leaseModel struct {
	order []mem.Line
	max   int
}

func (m *leaseModel) insert(l mem.Line) bool {
	for _, x := range m.order {
		if x == l {
			return false
		}
	}
	if len(m.order) >= m.max {
		m.order = m.order[1:]
	}
	m.order = append(m.order, l)
	return true
}

func (m *leaseModel) remove(l mem.Line) bool {
	for i, x := range m.order {
		if x == l {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return true
		}
	}
	return false
}

// TestTableVsModel checks membership/FIFO behaviour against a simple model
// over random operation sequences.
func TestTableVsModel(t *testing.T) {
	type op struct {
		Kind byte
		L    uint8
	}
	f := func(ops []op) bool {
		tb := NewTable(Config{MaxLeaseTime: 50, MaxNumLeases: 3})
		m := &leaseModel{max: 3}
		for _, o := range ops {
			l := mem.Line(o.L % 8)
			switch o.Kind % 3 {
			case 0:
				_, ins := tb.Insert(l, 10, false)
				if ins != m.insert(l) {
					return false
				}
			case 1:
				if (tb.Remove(l) != nil) != m.remove(l) {
					return false
				}
			case 2:
				e := tb.RemoveOldest()
				if len(m.order) == 0 {
					if e != nil {
						return false
					}
				} else {
					if e == nil || e.Line != m.order[0] {
						return false
					}
					m.order = m.order[1:]
				}
			}
			if tb.Len() != len(m.order) {
				return false
			}
			for _, x := range m.order {
				if tb.Find(x) == nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
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
	for _, g := range tb.StartGroup(200) {
		if g.Timer != 240 {
			t.Errorf("group lease: timer %d, want the deadline 240", g.Timer)
		}
	}
}
