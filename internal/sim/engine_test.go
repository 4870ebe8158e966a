package sim

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", e.Now())
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-cycle events not FIFO: %v", got)
		}
	}

	// A domain schedules more events for its own executing cycle than the
	// cycle's bucket holds, so the rest go to the heap; they still pop in the
	// order they were scheduled. The event it sends to a lower domain at the
	// same cycle, scheduled last, pops before all of them; the one the system
	// domain queued first pops after them.
	e = NewEngine()
	got = nil
	d0, d1 := e.Domain(0), e.Domain(1)
	const n = 3 * bucketCap
	e.At(5, func() { got = append(got, -2) })
	d1.At(5, func() {
		for i := 0; i < n; i++ {
			d1.After(0, func() { got = append(got, i) })
		}
		d1.CrossAt(d0, 5, func() { got = append(got, -1) })
	})
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	want := []int{-1}
	for i := 0; i < n; i++ {
		want = append(want, i)
	}
	want = append(want, -2)
	if !slices.Equal(got, want) {
		t.Fatalf("pop order %v, want %v", got, want)
	}
	if st := e.Stats(); st.BucketOverflows == 0 || st.HeapEvents == 0 || e.Now() != 5 {
		t.Fatalf("%d overflows, %d heap events, clock %d; want the cycle's bucket overflowed into the heap at cycle 5",
			st.BucketOverflows, st.HeapEvents, e.Now())
	}
}

// TestNetDomainOrdersLast pins the network domain's place in the event key.
// At one (cycle, target) its events pop after the core- and system-sourced
// ones, whenever those were pushed, and among themselves in push order. It
// is a source like any other: a push closer than the lookahead panics, and
// its event counts as foreign on its target.
func TestNetDomainOrdersLast(t *testing.T) {
	const la = 10
	e := NewEngine()
	e.DeclareLookahead(la)
	sys, net, d0, d1 := e.Sys(), e.Net(), e.Domain(0), e.Domain(1)
	var got []string
	at := func(name string) func() { return func() { got = append(got, name) } }
	e.At(1, func() { sys.At(20, at("sys")) })
	d1.At(5, func() {
		net.CrossAt(sys, 20, at("net1"))
		d1.CrossAt(sys, 20, at("core1"))
		net.CrossAt(sys, 20, at("net2"))
	})
	d0.At(6, func() { d0.CrossAt(sys, 20, at("core0")) })
	e.At(7, func() { sys.At(20, at("sys-late")) })
	var foreign int
	e.At(8, func() { foreign = sys.foreign })
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"core0", "core1", "sys", "sys-late", "net1", "net2"}; !slices.Equal(got, want) {
		t.Errorf("pop order %v, want %v", got, want)
	}
	if foreign != 4 || sys.foreign != 0 {
		t.Errorf("sys counts %d foreign callbacks while queued and %d drained; want 4 and 0", foreign, sys.foreign)
	}

	e = NewEngine()
	e.DeclareLookahead(la)
	e.At(5, func() { e.Net().CrossAt(e.Sys(), e.Now()+la-1, func() {}) })
	if msg := runPanic(e); !strings.Contains(msg, "lookahead violation") {
		t.Errorf("network push %d cycles ahead: got %q, want a lookahead violation", la-1, msg)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.At(1, func() {
		e.After(4, func() { fired = append(fired, e.Now()) })
		e.At(2, func() { fired = append(fired, e.Now()) })
	})
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 5 {
		t.Fatalf("fired = %v, want [2 5]", fired)
	}
}

func TestRunUntilStops(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10, func() { ran++ })
	e.At(100, func() { ran++ })
	if err := e.Run(50); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 (event at 100 must stay queued)", ran)
	}
	if e.Now() != 50 {
		t.Fatalf("Now() = %d, want 50", e.Now())
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("ran = %d after drain, want 2", ran)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestProcWorkAndSync(t *testing.T) {
	e := NewEngine()
	var at []Time
	e.Spawn(0, 0, 1, func(p *Proc) {
		p.Work(100)
		p.Sync()
		at = append(at, e.Now())
		p.Work(50)
		p.Sync()
		at = append(at, e.Now())
	})
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(at) != 2 || at[0] != 100 || at[1] != 150 {
		t.Fatalf("sync points = %v, want [100 150]", at)
	}
}

func TestProcsInterleaveByClock(t *testing.T) {
	e := NewEngine()
	var order []int
	mk := func(id int, step Time) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Work(step)
				p.Sync()
				order = append(order, id)
			}
		}
	}
	e.Spawn(0, 0, 1, mk(0, 10)) // acts at 10, 20, 30
	e.Spawn(1, 0, 2, mk(1, 7))  // acts at 7, 14, 21
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 0, 1, 0, 1, 0} // 7,10,14,20,21,30
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestBlockWake(t *testing.T) {
	e := NewEngine()
	var woke Time
	var blocked *Proc
	e.Spawn(0, 0, 1, func(p *Proc) {
		blocked = p
		woke = p.Block("waiting for test event")
	})
	e.At(5, func() { blocked.WakeAt(42) })
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if woke != 42 {
		t.Fatalf("woke = %d, want 42", woke)
	}
	if blocked.Clock() != 42 {
		t.Fatalf("clock = %d, want 42", blocked.Clock())
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine()
	e.Spawn(0, 0, 1, func(p *Proc) {
		p.Block("never woken")
	})
	err := e.Drain()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked = %v, want one entry", de.Blocked)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var trace []Time
		for id := 0; id < 4; id++ {
			id := id
			e.Spawn(id, 0, uint64(id)*7+1, func(p *Proc) {
				for i := 0; i < 20; i++ {
					p.Work(Time(p.RNG().Intn(50) + 1))
					p.Sync()
					trace = append(trace, e.Now()*10+Time(id))
				}
			})
		}
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		if n == 0 {
			return true
		}
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(int(n))
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}
