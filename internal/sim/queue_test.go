package sim

import "testing"

// A queue script is an event program whose shape depends only on the
// identity of each event, never on what ran before it: event c, whenever and
// wherever it runs, schedules scriptChildren(c). So the same script can run on
// an Engine and on a bare eventHeap, and the two must pop the same events at
// the same cycles. The heap is the order the two-tier queue claims to keep.

type scriptEvent struct {
	id    uint64
	delay Time // from the cycle the parent runs at
	dom   int  // target, an index into scriptDomains
	hops  int  // events left in this chain; a leaf schedules nothing
}

var scriptDomains = [...]uint32{0, 1, 2, SysDomain}

// The delays of the workloads' census (EXPERIMENTS.md "Host performance"):
// same cycle, the next few, a network hop with and without jitter, an L2
// fill, a DRAM fill, the near tier's last cycle, the heap's first, and a
// lease expiry.
var scriptDelays = [...]Time{0, 1, 2, 3, 4, 15, 18, 26, 126, nearSpan - 1, nearSpan, 20000}

func scriptChildren(c scriptEvent) []scriptEvent {
	if c.hops == 0 {
		return nil
	}
	r := NewRNG(c.id)
	draw := func(hops int) scriptEvent {
		return scriptEvent{id: r.Next(), delay: scriptDelays[r.Intn(len(scriptDelays))],
			dom: r.Intn(len(scriptDomains)), hops: hops}
	}
	out := []scriptEvent{draw(c.hops - 1)}
	switch r.Intn(16) {
	case 0:
		// A burst at one cycle, more than a bucket holds; with delay 0 it
		// lands in the bucket that is draining.
		k := draw(0)
		for i := 0; i < 40; i++ {
			k.id, k.dom = r.Next(), r.Intn(len(scriptDomains))
			out = append(out, k)
		}
	case 1:
		k := draw(0)
		k.delay = 20000 // a timer that outlives everything around it
		out = append(out, k)
	}
	return out
}

type scriptPop struct {
	at Time
	id uint64
}

// scriptRun executes a script on whatever now and schedule drive; probe, if
// set, runs first in every event.
type scriptRun struct {
	log      []scriptPop
	now      func() Time
	schedule func(from, to int, at Time, fn func())
	probe    func()
}

func (s *scriptRun) event(c scriptEvent) func() {
	return func() {
		if s.probe != nil {
			s.probe()
		}
		s.log = append(s.log, scriptPop{s.now(), c.id})
		for _, k := range scriptChildren(c) {
			s.schedule(c.dom, k.dom, s.now()+k.delay, s.event(k))
		}
	}
}

func (s *scriptRun) start(seed uint64, chains, hops int) {
	r := NewRNG(seed)
	for i := 0; i < chains; i++ {
		c := scriptEvent{id: r.Next(), dom: r.Intn(len(scriptDomains)), hops: hops}
		s.schedule(c.dom, c.dom, Time(r.Intn(8)), s.event(c))
	}
}

// heapRef is the reference executor: one eventHeap, popped in key order.
type heapRef struct {
	scriptRun
	h   eventHeap
	at  Time
	seq [len(scriptDomains)]uint64
}

func newHeapRef() *heapRef {
	r := &heapRef{}
	r.now = func() Time { return r.at }
	r.schedule = func(from, to int, at Time, fn func()) {
		r.seq[from]++
		r.h.push(at, r.seq[from], scriptDomains[to], scriptDomains[from], fn, nil)
	}
	return r
}

func (r *heapRef) run(until Time) {
	for len(r.h) > 0 && r.h[0].at < until {
		fn := r.h[0].fn
		r.at = r.h[0].at
		r.h.pop()
		fn()
	}
}

// foreignChecks counts the answers checkForeignBy compared: true ones, those
// true only for an event that overflowed a full bucket into the heap, and
// those for an event at exactly T.
type foreignChecks struct{ found, overflow, atT uint64 }

// checkForeignBy compares eventQueue.foreignBy with a walk over every queued
// event, for each script domain at several cycles T: now, one hop and one
// near span ahead, and the cycle of the domain's earliest foreign event and
// the one before it.
func checkForeignBy(t *testing.T, e *Engine, n *foreignChecks) {
	q, now := &e.events, e.Now()
	var near, far [len(scriptDomains)]Time // earliest foreign event per domain and tier
	for k, d := range scriptDomains {
		near[k], far[k] = MaxTime, MaxTime
		for s := range q.near {
			for i := range q.cnt[s] {
				if ev := &q.near[s][i]; ev.dom == d && ev.src != d {
					near[k] = min(near[k], ev.at)
				}
			}
		}
		for i := range q.far {
			if ev := &q.far[i]; ev.dom == d && ev.src != d {
				far[k] = min(far[k], ev.at)
			}
		}
		first := min(near[k], far[k])
		for _, at := range [...]Time{now, now + 15, now + nearSpan, first - 1, first} {
			if at < now || at == MaxTime {
				continue
			}
			got, want := q.foreignBy(d, at, now), first <= at
			if got != want {
				t.Fatalf("cycle %d: foreignBy(domain %d, T %d) = %v; the earliest foreign event is at %d in the near tier, %d in the heap",
					now, d, at, got, near[k], far[k])
			}
			if want {
				n.found++
			}
			if want && near[k] > at && far[k]-now < nearSpan && q.cnt[far[k]%nearSpan] == bucketCap {
				n.overflow++
			}
			if want && first == at {
				n.atT++
			}
		}
	}
}

// checkQueueMatchesHeap runs one script on an Engine, Run cut into slices,
// and on the reference, and returns the engine for a look at its counters.
// Every event of the engine's run checks foreignBy first.
func checkQueueMatchesHeap(t *testing.T, seed uint64, chains, hops int, n *foreignChecks) *Engine {
	t.Helper()
	e := NewEngine()
	got := &scriptRun{now: e.Now, probe: func() { checkForeignBy(t, e, n) }}
	got.schedule = func(from, to int, at Time, fn func()) {
		e.Domain(scriptDomains[from]).CrossAt(e.Domain(scriptDomains[to]), at, fn)
	}
	want := newHeapRef()
	got.start(seed, chains, hops)
	want.start(seed, chains, hops)

	r := NewRNG(seed ^ 0x51ce)
	slices := [...]Time{1, 2, 17, 255, 256, 257, 3000, 25000}
	for until := Time(0); e.Pending() > 0 || len(want.h) > 0; {
		until += slices[r.Intn(len(slices))]
		if err := e.Run(until); err != nil {
			t.Fatal(err)
		}
		want.run(until)
		if e.Pending() != len(want.h) {
			t.Fatalf("seed %d: %d events pending at cycle %d, the heap holds %d", seed, e.Pending(), until, len(want.h))
		}
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("seed %d: %d events ran, the heap ran %d", seed, len(got.log), len(want.log))
	}
	for i := range want.log {
		if got.log[i] != want.log[i] {
			t.Fatalf("seed %d: pop %d is event %#x at cycle %d, the heap pops %#x at %d",
				seed, i, got.log[i].id, got.log[i].at, want.log[i].id, want.log[i].at)
		}
	}
	return e
}

// TestQueueMatchesHeap: the two-tier queue pops in the order of a single
// heap, on schedules that use every placement, and finds a domain's foreign
// events at or before a cycle wherever they sit.
func TestQueueMatchesHeap(t *testing.T) {
	var bucket, heap, overflows uint64
	var n foreignChecks
	for seed := uint64(1); seed <= 8; seed++ {
		st := checkQueueMatchesHeap(t, seed, 32, 120, &n).Stats()
		bucket += st.BucketEvents
		heap += st.HeapEvents
		overflows += st.BucketOverflows
	}
	if bucket == 0 || heap == 0 || overflows == 0 {
		t.Errorf("the scripts did not reach every tier: %d bucket, %d heap events, %d overflows",
			bucket, heap, overflows)
	}
	if n.found == 0 || n.overflow == 0 || n.atT == 0 {
		t.Errorf("foreignBy found %d foreign events, %d only in an overflowed bucket's heap share, %d at exactly T; want each",
			n.found, n.overflow, n.atT)
	}
}

func FuzzEventQueue(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(200))
	f.Add(uint64(7), uint8(64), uint8(20))
	f.Add(uint64(0xfeed), uint8(200), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, chains, hops uint8) {
		checkQueueMatchesHeap(t, seed, int(chains), int(hops), new(foreignChecks))
	})
}

// TestQueueTierCounters pins where events are queued and popped on a schedule
// small enough to count by hand.
func TestQueueTierCounters(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	for i := 0; i < bucketCap+1; i++ {
		e.At(5, nop) // the last one finds the bucket full
	}
	e.At(10, func() { e.After(0, nop) }) // same cycle: the bucket that is draining
	e.At(nearSpan-1, nop)                // the near tier's last cycle
	e.At(nearSpan, nop)                  // the heap's first
	if got := e.Pending(); got != bucketCap+4 {
		t.Fatalf("Pending() = %d, want %d", got, bucketCap+4)
	}
	if len(e.events.far) != 2 {
		t.Fatalf("the heap holds %d events, want the overflow and the far one", len(e.events.far))
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	want := EngineStats{EventsTotal: bucketCap + 5, BucketEvents: bucketCap + 3,
		HeapEvents: 2, BucketOverflows: 1, MaxPending: bucketCap + 4}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

// TestNearTierIsFixed: every bucket filled to capacity is 4096 queued events
// and not one in the heap, so nothing that could grow was touched.
func TestNearTierIsFixed(t *testing.T) {
	e := NewEngine()
	ran := 0
	for c := Time(0); c < nearSpan; c++ {
		for i := 0; i < bucketCap; i++ {
			e.At(c, func() { ran++ })
		}
	}
	if e.events.nearN != nearSpan*bucketCap || cap(e.events.far) != 0 {
		t.Fatalf("%d events in the near tier, heap capacity %d; want %d, 0",
			e.events.nearN, cap(e.events.far), nearSpan*bucketCap)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if ran != nearSpan*bucketCap || e.Now() != nearSpan-1 {
		t.Fatalf("ran %d events up to cycle %d", ran, e.Now())
	}
}
