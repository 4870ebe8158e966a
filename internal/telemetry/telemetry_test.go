package telemetry

import (
	"bytes"
	"fmt"
	"iter"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"leaserelease/internal/mem"
)

func TestHistBasics(t *testing.T) {
	var h Hist
	if h.n != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("zero hist must report zeros")
	}
	for _, v := range []uint64{0, 1, 2, 3, 100, 1000, 1000, 1 << 40} {
		h.Observe(v)
	}
	if h.n != 8 {
		t.Fatalf("count = %d, want 8", h.n)
	}
	if h.min != 0 || h.max != 1<<40 {
		t.Fatalf("min/max = %d/%d", h.min, h.max)
	}
	wantMean := float64(0+1+2+3+100+1000+1000+(1<<40)) / 8
	if h.Mean() != wantMean {
		t.Fatalf("mean = %v, want %v", h.Mean(), wantMean)
	}
}

// Quantiles must be monotone in q, bounded by [min, max], and roughly
// track the underlying distribution despite log bucketing.
func TestHistQuantiles(t *testing.T) {
	var h Hist
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	prev := uint64(0)
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %d < %d", q, v, prev)
		}
		if v < h.min || v > h.max {
			t.Fatalf("quantile %v = %d outside [%d, %d]", q, v, h.min, h.max)
		}
		prev = v
	}
	p50 := h.Quantile(0.5)
	// Log-bucketed: p50 of uniform(1..1000) must land within the
	// containing power-of-two bucket of the true median 500.
	if p50 < 256 || p50 > 1000 {
		t.Fatalf("p50 = %d, want within [256, 1000]", p50)
	}
}

func TestHistAddMatchesMergedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var a, b, merged Hist
	for i := 0; i < 5000; i++ {
		v := uint64(rng.Intn(1 << 20))
		merged.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Add(&b)
	if !reflect.DeepEqual(a, merged) {
		t.Fatal("Add result differs from single-stream histogram")
	}
}

func TestBusNilSafe(t *testing.T) {
	var b *Bus
	if b.Wants(CatLease) {
		t.Fatal("nil bus wants events")
	}
	b.Emit(CatLease, 0, LeaseCreated, 1, 0) // must not panic
}

func TestBusRouting(t *testing.T) {
	now := uint64(7)
	b := NewBus(func() uint64 { return now })
	var lease, all []Event
	b.Subscribe(CatLease, func(e Event) { lease = append(lease, e) })
	b.SubscribeAll(func(e Event) { all = append(all, e) })
	if !b.Wants(CatLease) || !b.Wants(CatCache) {
		t.Fatal("Wants must reflect subscriptions")
	}
	b.Emit(CatLease, 3, LeaseStarted, mem.Line(0x40), NoVal)
	now = 9
	b.Emit(CatCache, 1, 2, mem.Line(0x80), 1)
	if len(lease) != 1 || len(all) != 2 {
		t.Fatalf("lease=%d all=%d, want 1/2", len(lease), len(all))
	}
	want := Event{Time: 7, Core: 3, Cat: CatLease, Kind: LeaseStarted, Line: 0x40, Val: NoVal}
	if lease[0] != want {
		t.Fatalf("event = %+v, want %+v", lease[0], want)
	}
	if all[1].Time != 9 || all[1].Cat != CatCache {
		t.Fatalf("second event = %+v", all[1])
	}
}

// Every CatLease kind must have a distinct human-readable name; only
// out-of-range values fall through to the LeaseKind(%d) default.
func TestLeaseKindNameExhaustive(t *testing.T) {
	kinds := []uint8{
		LeaseCreated, LeaseStarted, LeaseReleased, LeaseExpired, LeaseEvicted,
		LeaseForced, LeaseBroken, ProbeDeferred, LeaseIgnored, ProbeServed,
	}
	seen := make(map[string]uint8, len(kinds))
	for i, k := range kinds {
		if int(k) != i {
			t.Fatalf("kind %d numbered %d: the list must follow the declaration", i, k)
		}
		name := LeaseKindName(k)
		if strings.HasPrefix(name, "LeaseKind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if other, dup := seen[name]; dup {
			t.Fatalf("kinds %d and %d share the name %q", other, k, name)
		}
		seen[name] = k
	}
	// The first value past the list is unnamed: a new kind must be added to
	// both the function and the list above.
	next := uint8(len(kinds))
	if got, want := LeaseKindName(next), fmt.Sprintf("LeaseKind(%d)", next); got != want {
		t.Fatalf("LeaseKindName(%d) = %q, want %q: a kind is missing from this test", next, got, want)
	}
}

// trafficTable is a TrafficSource that holds the counts in a line table the
// test fills, as the directory's records are in a run.
type trafficTable struct{ lineTable[Traffic] }

func (t *trafficTable) LineTraffic(l mem.Line) Traffic { return t.value(l) }

func (t *trafficTable) AllTraffic() iter.Seq2[mem.Line, Traffic] {
	return func(yield func(mem.Line, Traffic) bool) {
		for l, c := range t.all() {
			if *c != (Traffic{}) && !yield(l, *c) {
				return
			}
		}
	}
}

// hotLines returns an empty hot-line profile and the traffic table its
// rankings read.
func hotLines() (*HotLines, *trafficTable) {
	return new(HotLines), new(trafficTable)
}

func TestHotLinesRankingDeterministic(t *testing.T) {
	build := func(order []int) []LineStats {
		h, tr := hotLines()
		for _, i := range order {
			l := mem.Line(i)
			tr.get(l).Msgs = uint64(i % 3)    // many score ties
			h.get(l).Deferred = uint64(i % 2) // tie-break level 1
			tr.get(l).Invals = uint64(i % 2)  // tie-break level 2
		}
		return h.Top(10, tr)
	}
	order := make([]int, 64)
	for i := range order {
		order[i] = i
	}
	a := build(order)
	sort.Sort(sort.Reverse(sort.IntSlice(order)))
	bTop := build(order)
	if !reflect.DeepEqual(a, bTop) {
		t.Fatalf("ranking depends on insertion order:\n%v\n%v", a, bTop)
	}
	for i := 1; i < len(a); i++ {
		if a[i].Score() > a[i-1].Score() {
			t.Fatal("ranking not sorted by score")
		}
	}
}

func TestTimelineDeterministicOutput(t *testing.T) {
	feed := func() *Timeline {
		tl := NewTimeline(1000)
		tl.OnLease(Event{Time: 100, Core: 1, Kind: LeaseStarted, Line: 0x40})
		tl.OnLease(Event{Time: 150, Core: 0, Kind: LeaseStarted, Line: 0x80})
		tl.OnLease(Event{Time: 160, Core: 1, Kind: ProbeDeferred, Line: 0x40})
		tl.OnLease(Event{Time: 180, Core: 1, Kind: LeaseReleased, Line: 0x40, Val: 80})
		tl.OnLease(Event{Time: 500, Core: 2, Kind: LeaseStarted, Line: 0xc0})
		tl.Finish(1000) // cores 0 and 2 still open
		return tl
	}
	var a, b bytes.Buffer
	if err := feed().Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := feed().Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("timeline output not byte-for-byte deterministic")
	}
	out := a.String()
	for _, want := range []string{`"traceEvents"`, `"ph": "X"`, `"ph": "i"`, `"reason": "open at end of run"`, `"core 2"`} {
		if !bytes.Contains(a.Bytes(), []byte(want)) {
			t.Fatalf("timeline output missing %q:\n%s", want, out)
		}
	}
}

// A closed lease interval must convert cycles to trace microseconds via
// CyclesPerUS.
func TestTimelineUnits(t *testing.T) {
	tl := NewTimeline(1000)
	tl.OnLease(Event{Time: 2000, Core: 0, Kind: LeaseStarted, Line: 0x40})
	tl.OnLease(Event{Time: 4000, Core: 0, Kind: LeaseExpired, Line: 0x40, Val: 2000})
	if len(tl.events) != 1 {
		t.Fatalf("events = %d, want 1", len(tl.events))
	}
	e := tl.events[0]
	if e.Ts != 2.0 || e.Dur == nil || *e.Dur != 2.0 {
		t.Fatalf("ts/dur = %v/%v, want 2.0/2.0", e.Ts, e.Dur)
	}
	if e.Args == nil || e.Args.HoldCycles != 2000 || e.Args.Reason != "expire" {
		t.Fatalf("args = %+v", e.Args)
	}
}

func TestRecorderFoldsEvents(t *testing.T) {
	now := uint64(0)
	b := NewBus(func() uint64 { return now })
	r := NewRecorder()
	r.EnableTimeline(1000)
	r.Attach(b)

	if b.Wants(CatCoherence) || b.Wants(CatCache) {
		t.Fatal("the recorder subscribes traffic the directory counts")
	}
	l := mem.Line(0x40)
	b.Emit(CatLease, 0, LeaseCreated, l, NoVal)
	now = 10
	b.Emit(CatLease, 0, LeaseStarted, l, NoVal)
	now = 20
	b.Emit(CatLease, 0, ProbeDeferred, l, NoVal)
	now = 60
	b.Emit(CatLease, 0, LeaseReleased, l, 50)
	b.Emit(CatLease, 0, ProbeServed, l, 40)
	b.Emit(CatDirQueue, 1, 0, l, 5)
	// A lease that never starts must not pollute the hold histogram.
	b.Emit(CatLease, 1, LeaseEvicted, mem.Line(0x80), NoVal)

	if got := r.LeaseHold.n; got != 1 {
		t.Fatalf("hold count = %d, want 1", got)
	}
	if got := r.LeaseHold.max; got != 50 {
		t.Fatalf("hold max = %d, want 50", got)
	}
	if got := r.ProbeDefer.max; got != 40 {
		t.Fatalf("defer max = %d, want 40", got)
	}
	if got := r.DirQueue.max; got != 5 {
		t.Fatalf("dirq max = %d, want 5", got)
	}
	if s := r.Lines.stats(b.Traffic, l); s.Leases != 1 || s.Deferred != 1 || s.DeferredCycles != 40 || s.Traffic != (Traffic{}) {
		t.Fatalf("line stats = %+v", s)
	}
	if len(r.Timeline.events) != 2 { // probe-deferred instant + closed slice
		t.Fatalf("timeline events = %d, want 2", len(r.Timeline.events))
	}
}

// Line 0 is an ordinary key: the benchmark's recorder probe emits for it.
// It is counted once and ranks like any other line, whichever half counted
// it; find makes no entry.
func TestHotLinesLineZero(t *testing.T) {
	h, tr := hotLines()
	if h.find(0) != nil {
		t.Fatal("find reports line 0 before any event")
	}
	h.get(0).Breaks += 5
	h.get(0).Breaks += 5
	tr.get(0).Msgs = 3
	tr.get(3).Msgs++
	if h.n != 1 {
		t.Fatalf("len = %d, want 1 (line 0 counted once)", h.n)
	}
	top := h.Top(5, tr)
	if len(top) != 2 || top[0].Line != 0 || top[0].Breaks != 10 || top[0].Msgs != 3 || top[1].Line != 3 {
		t.Fatalf("top = %+v, want line 0 (10 breaks, 3 msgs) then line 3", top)
	}
	if s := h.stats(tr, 0); s.Breaks != 10 || s.Score() != 13 {
		t.Fatalf("stats(0) = %+v, want line 0's counters", s)
	}
	if h.find(4) != nil || h.n != 1 {
		t.Fatalf("find of an unseen line made an entry: len %d", h.n)
	}
}

// Top selects its k rows in a buffer of at most 2k+1: over 20 000 lines it
// allocates under 1 % of a copy of every line, and so do the ledger's
// rankings.
func TestRankingsAllocateForK(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector distorts allocation counts")
	}
	const lines = 20_000
	h, tr := hotLines()
	ld := NewLedger()
	for i := range lines {
		l := mem.Line(3 * i)
		tr.get(l).Msgs = uint64(i % 97)
		h.get(l).Deferred = uint64(i % 5)
		ld.OnLease(leaseEv(0, 0, LeaseStarted, l, 100))
		ld.OnLease(leaseEv(uint64(i%50), 0, LeaseReleased, l, uint64(i%50)))
	}
	bytesPer := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 10 {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 10
	}
	bound := uint64(lines * unsafe.Sizeof(LineStats{}) / 100)
	if got := bytesPer(func() { h.Top(10, tr) }); got > bound {
		t.Errorf("Top(10) over %d lines allocates %d bytes, want at most %d", lines, got, bound)
	}
	if got := bytesPer(func() { ld.TopWasted(10) }); got > bound {
		t.Errorf("TopWasted(10) over %d lines allocates %d bytes, want at most %d", lines, got, bound)
	}
	if top := h.Top(10, tr); len(top) != 10 || top[0].Msgs != 96 || top[0].Deferred != 4 {
		t.Errorf("Top(10)[0] = %+v, want 96 msgs and 4 deferrals", top[0])
	}
}

// The rankings keep the order the map-plus-sort version gave, ties
// included, over both halves of the hot-line counters, over lines in the setup region and in two core arenas (three
// regions of the paged index) that fill more than two record pages, whatever
// order the lines were first seen in.
func TestRankingsKeepTheirOrderAcrossRegions(t *testing.T) {
	var lines []mem.Line
	for _, al := range []*mem.Allocator{mem.NewAllocator(), mem.NewArena(0), mem.NewArena(37)} {
		for i := 0; i < 200; i++ {
			lines = append(lines, mem.LineOf(al.AllocAligned(mem.LineSize*uint64(1+i%3))))
		}
	}
	lines = append(lines, 0)
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })

	h, tr := hotLines()
	ld := NewLedger()
	refHot := map[mem.Line]*LineStats{}
	refLed := map[mem.Line]*LineLedger{}
	for _, l := range lines {
		s, c := tr.get(l), h.get(l)
		s.Msgs, c.Deferred, s.Invals = uint64(rng.Intn(3)), uint64(rng.Intn(2)), uint64(rng.Intn(2))
		refHot[l] = &LineStats{l, *s, *c}
		dur, hold := uint64(100), uint64(rng.Intn(3))*10
		ld.OnLease(leaseEv(0, 0, LeaseStarted, l, dur))
		ld.OnLease(leaseEv(hold, 0, LeaseReleased, l, hold))
		refLed[l] = &LineLedger{l, leaseAccount{Leases: 1, GrantedCycles: dur, UsedCycles: hold, UnusedCycles: dur - hold}}
	}

	// The reference: the map-plus-sort implementation these replaced.
	hot := make([]LineStats, 0, len(refHot))
	for _, s := range refHot {
		hot = append(hot, *s)
	}
	sort.Slice(hot, func(i, j int) bool {
		si, sj := hot[i].Score(), hot[j].Score()
		if si != sj {
			return si > sj
		}
		if hot[i].Deferred != hot[j].Deferred {
			return hot[i].Deferred > hot[j].Deferred
		}
		if hot[i].Invals != hot[j].Invals {
			return hot[i].Invals > hot[j].Invals
		}
		return hot[i].Line < hot[j].Line
	})
	led := make([]LineLedger, 0, len(refLed))
	for _, s := range refLed {
		led = append(led, *s)
	}
	sort.Slice(led, func(i, j int) bool { return led[i].Line < led[j].Line })
	wasted := slices.Clone(led)
	sort.Slice(wasted, func(i, j int) bool {
		if wi, wj := wasted[i].WastedCycles(), wasted[j].WastedCycles(); wi != wj {
			return wi > wj
		}
		return wasted[i].Line < wasted[j].Line
	})
	wasted = slices.DeleteFunc(wasted, func(l LineLedger) bool { return l.WastedCycles() == 0 })

	if int(h.n) != len(lines) || int(ld.lines.n) != len(lines) || len(lines) <= 2*pageRecords {
		t.Fatalf("len = %d hot, %d ledger; want %d, over two pages", h.n, ld.lines.n, len(lines))
	}
	for _, k := range []int{1, 10} {
		if got := h.Top(k, tr); !reflect.DeepEqual(got, hot[:k]) {
			t.Errorf("Top(%d) = %v\nwant %v", k, got, hot[:k])
		}
	}
	if got := ld.Lines(); !reflect.DeepEqual(got, led) {
		t.Errorf("Ledger.Lines out of line order:\n%v\nwant %v", got, led)
	}
	// A k of every line, or a negative one, ranks every line.
	for _, k := range []int{len(lines), -1} {
		if got := h.Top(k, tr); !reflect.DeepEqual(got, hot) {
			t.Errorf("Top(%d) = %v\nwant %v", k, got, hot)
		}
		if got := ld.TopWasted(k); !reflect.DeepEqual(got, wasted) {
			t.Errorf("TopWasted(%d) = %v\nwant %v", k, got, wasted)
		}
	}
}

// On a recorder, with its spans, ledger and hot lines, one leased
// transaction's whole event stream on a line already seen allocates
// nothing: counters are values in a paged line index, and the transaction's
// stamps travel in its one event.
func TestRecorderZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is unreliable under the race detector")
	}
	var now uint64
	b := NewBus(func() uint64 { return now })
	r := NewRecorder()
	r.Attach(b)
	const core, owner = 2, 5
	l := mem.Line(0x40)
	var seq uint64
	var st TxnStamps // a request's, which outlives its transaction
	txn := func() {
		seq++
		start := now
		b.Emit(CatLease, owner, LeaseStarted, l, 100)
		b.Emit(CatLease, core, LeaseCreated, l, NoVal)
		b.Emit(CatCoherence, core, MsgRequest, l, 1)
		now += 15
		b.Emit(CatDirQueue, -1, 0, l, 2)
		b.Emit(CatCoherence, -1, MsgForward, l, 1)
		now += 15
		b.Emit(CatLease, owner, ProbeDeferred, l, NoVal)
		now += 40
		b.Emit(CatLease, owner, LeaseReleased, l, 70)
		b.Emit(CatLease, owner, ProbeServed, l, 40)
		b.Emit(CatCoherence, owner, MsgReply, l, 1)
		now += 17
		st = forwarded(start, start+15, start+15, owner, start+30, start+70, true)
		b.EmitTxn(core, l, TxnID(core, seq), &st)
		b.Emit(CatLease, core, LeaseStarted, l, 100)
		now += 30
		b.Emit(CatLease, core, LeaseReleased, l, 30)
		b.Emit(CatCache, core, 2, l+1, 1)
		r.Spans.OpEnd(core, start, now, true)
		r.Ledger.OpEnd(core, true)
		r.Ledger.OpEnd(owner, true)
	}
	txn() // first sight of the lines, the cores' pending ops and their lease records
	allocs := testing.AllocsPerRun(1000, txn)
	if allocs != 0 {
		t.Errorf("a leased transaction's events allocate %.1f objects, want 0", allocs)
	}
	if st := r.Spans.Stats(); st.Spans != seq || st.Deferred != seq || st.Phase[PhaseDefer] != 40*seq {
		t.Errorf("spans = %+v, want %d deferred spans of 40 deferral cycles", st, seq)
	}
	if tot := r.Ledger.Totals(); tot.Leases != 2*seq || tot.DeferredTxns != seq {
		t.Errorf("ledger totals = %+v, want %d leases, %d deferred txns", tot, 2*seq, seq)
	}
}

// maxBytesPerLine bounds a Recorder's live heap per observed line (see
// TestRecorderFootprint): a hot-line lease record is 32 bytes, and its
// 4-byte index slot costs 8 bytes a line when every other line is observed.
const maxBytesPerLine = 80

// A Recorder, with its spans, ledger and hot lines, fed one lease and one
// forwarded transaction on each of 40 000 sparse lines (every other line of
// two core arenas, as a queue's nodes leave them), holds at most
// maxBytesPerLine of live heap per line: each line costs one dense hot-line
// lease record and its index slot, the directory keeps the line's traffic,
// and a span that deferred nothing costs the ledger nothing.
func TestRecorderFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap accounting")
	}
	const perArena = 20000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	var now uint64
	b := NewBus(func() uint64 { return now })
	r := NewRecorder()
	r.Attach(b)
	var seq uint64
	for core := range 2 {
		base := mem.LineOf(mem.NewArena(core).AllocAligned(mem.LineSize))
		for i := range perArena {
			l := base + mem.Line(2*i)
			seq++
			b.Emit(CatLease, core, LeaseCreated, l, NoVal)
			b.Emit(CatDirQueue, -1, 0, l, 1)
			now += 30
			st := forwarded(now-30, now-20, now-20, 1-core, now-10, now-10, false)
			b.EmitTxn(core, l, TxnID(core, seq), &st)
		}
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	if st := r.Spans.Stats(); st.Spans != 2*perArena {
		t.Fatalf("spans = %d, want %d", st.Spans, 2*perArena)
	}
	if n := r.Lines.n; n != 2*perArena {
		t.Fatalf("hot lines = %d, want %d", n, 2*perArena)
	}
	perLine := float64(after.HeapAlloc-before.HeapAlloc) / (2 * perArena)
	t.Logf("%.1f live heap bytes per observed line", perLine)
	if perLine > maxBytesPerLine {
		t.Errorf("the recorder holds %.1f bytes per observed line, want at most %d", perLine, maxBytesPerLine)
	}
}
