package tardis

import (
	"testing"

	"leaserelease/internal/cache"
	"leaserelease/internal/coherence"
	"leaserelease/internal/mem"
	"leaserelease/internal/sim"
)

// The transport under the policy is tested on both backends in package
// coherence (coherence_test.go, FuzzTardis); these tests are about what the
// timestamp manager decides.

var timing = coherence.Timing{Net: 10, L2Tag: 2, L2Data: 5, Inval: 1, DRAM: 50}

const ln7 = mem.Line(7)

// env is a core side that records what the directory asks of it. A grant to
// a request with Lease set starts a lease of leaseDur cycles from inside
// Complete, as the machine does: before the line's commit in the same cycle.
type env struct {
	eng      *sim.Engine
	d        *coherence.Directory
	msgs     [coherence.NumMsgKinds]int
	l2       int
	grants   []sim.Time // completion times
	invals   []inval
	probes   int
	leaseDur uint64
}

type inval struct {
	core int
	at   sim.Time
}

func (e *env) DeliverProbe(int, *coherence.Request) bool { e.probes++; return false }
func (e *env) Invalidate(core int, _ mem.Line) {
	e.invals = append(e.invals, inval{core, e.eng.Now()})
}
func (e *env) Complete(req *coherence.Request, _ cache.State) {
	e.grants = append(e.grants, e.eng.Now())
	if req.Lease {
		e.d.LeaseStarted(req.Core, req.Line, e.leaseDur)
	}
}
func (e *env) CountMsg(k coherence.MsgKind, n int) { e.msgs[k] += n }
func (e *env) CountL2()                            { e.l2++ }
func (e *env) CountDRAM()                          {}

func setup() (*sim.Engine, *env, *coherence.Directory) {
	eng := sim.NewEngine()
	e := &env{eng: eng}
	e.d = New(eng, e, timing, Config{}, 4)
	return eng, e, e.d
}

// txn submits one request now and runs until it has completed, and no
// further: reservations granted so far stay live.
func txn(t *testing.T, e *env, core int, excl bool) sim.Time {
	t.Helper()
	n := len(e.grants)
	e.d.Submit(&coherence.Request{Core: core, Line: ln7, Excl: excl})
	for until := e.eng.Now(); len(e.grants) == n; {
		until += timing.Net
		if err := e.eng.Run(until + 1); err != nil {
			t.Fatal(err)
		}
		if until > 1<<20 {
			t.Fatal("the request never completed")
		}
	}
	v := e.d.View(ln7)
	if v.Busy || v.WTS > v.RTS {
		t.Fatalf("after the commit: %+v", v)
	}
	return e.grants[n]
}

func drain(t *testing.T, eng *sim.Engine) {
	t.Helper()
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
}

// A re-read of a line unwritten since the reader's reservation is a renewal:
// counted, at tag latency, with a grant message and no data access.
func TestRenewalIsTagOnly(t *testing.T) {
	eng, e, d := setup()
	first := txn(t, e, 0, false)
	drain(t, eng) // the reservation runs out
	if len(e.invals) != 1 || e.l2 != 1 {
		t.Fatalf("after the first read ran out: self-invalidations %v, %d L2 accesses", e.invals, e.l2)
	}
	start := eng.Now()
	renewed := txn(t, e, 0, false)
	if d.Stats.Renewals != 1 || e.l2 != 1 || e.msgs[coherence.MsgReply] != 2 {
		t.Fatalf("%d renewals, %d L2 accesses, %d replies; want 1, 1, 2", d.Stats.Renewals, e.l2, e.msgs[coherence.MsgReply])
	}
	if got, want := renewed-start, timing.Net+timing.L2Tag+timing.Net; got != want {
		t.Fatalf("the renewal took %d cycles, want %d", got, want)
	}
	if v := d.View(ln7); v.RTS != renewed+2000 || v.WTS != 0 || v.Sharers != 1 {
		t.Fatalf("after the renewal at %d (first grant %d): %+v", renewed, first, v)
	}

	// Once the line has been written (and written back) the reader's record no
	// longer matches: a fill.
	txn(t, e, 1, true)
	d.Writeback(1, ln7)
	drain(t, eng)
	txn(t, e, 0, false)
	if d.Stats.Renewals != 1 || e.l2 != 3 {
		t.Fatalf("a read of a rewritten line: %d renewals, %d L2 accesses; want 1 and 3", d.Stats.Renewals, e.l2)
	}
}

// A write to a line under a live read reservation invalidates nobody: its
// logical time jumps to rts+1 and the reader's copy runs out on its own.
func TestWriteJumpsPastReservation(t *testing.T) {
	eng, e, d := setup()
	read := txn(t, e, 0, false)
	txn(t, e, 1, true)
	v := d.View(ln7)
	if v.WTS != read+2001 || v.RTS != v.WTS || d.Stats.RTSJumps != 1 {
		t.Fatalf("write under a reservation to %d: %+v, %d jumps", read+2000, v, d.Stats.RTSJumps)
	}
	if v.State != "M" || v.Owner != 1 || v.Sharers != 1 {
		t.Fatalf("the owner is core 1 and core 0's reservation stands: %+v", v)
	}
	if len(e.invals) != 0 || e.msgs[coherence.MsgInval] != 0 {
		t.Fatalf("the write invalidated: %v, %d messages", e.invals, e.msgs[coherence.MsgInval])
	}
	drain(t, eng)
	if len(e.invals) != 1 || e.invals[0] != (inval{0, read + 2000}) {
		t.Fatalf("self-invalidations %v, want core 0 at %d", e.invals, read+2000)
	}

	// With no reservation live the next write commits at its own time.
	at := txn(t, e, 2, true)
	if v := d.View(ln7); v.WTS != at || d.Stats.RTSJumps != 1 {
		t.Fatalf("a write at %d with nothing reserved: %+v, %d jumps", at, v, d.Stats.RTSJumps)
	}
}

// A copy self-invalidates at exactly the end of its reservation, and the
// lapse of a reservation that was replaced, evicted or promoted does nothing.
func TestSelfInvalidationAndStaleTimers(t *testing.T) {
	for name, tc := range map[string]struct {
		then func(t *testing.T, e *env) // after core 0's read
		want func(read, then sim.Time) []inval
	}{
		"undisturbed": {
			func(*testing.T, *env) {},
			func(read, _ sim.Time) []inval { return []inval{{0, read + 2000}} }},
		"re-granted": {
			func(t *testing.T, e *env) { txn(t, e, 0, false) },
			func(_, again sim.Time) []inval { return []inval{{0, again + 2000}} }},
		"evicted": {
			func(t *testing.T, e *env) { e.d.SharerDrop(0, ln7) },
			func(_, _ sim.Time) []inval { return nil }},
		"evicted, then re-granted before the old end": { // the drop lands first: a fill, not a renewal
			func(t *testing.T, e *env) { e.d.SharerDrop(0, ln7); txn(t, e, 0, false) },
			func(_, again sim.Time) []inval { return []inval{{0, again + 2000}} }},
		"promoted to owner": {
			func(t *testing.T, e *env) { txn(t, e, 0, true) },
			func(_, _ sim.Time) []inval { return nil }},
		"downgraded owner": { // a read forwarded to owner 0 leaves both with a reservation
			func(t *testing.T, e *env) { txn(t, e, 0, true); txn(t, e, 1, false) },
			func(_, fwd sim.Time) []inval { return []inval{{0, fwd + 2000}, {1, fwd + 2000}} }},
	} {
		t.Run(name, func(t *testing.T) {
			eng, e, _ := setup()
			read := txn(t, e, 0, false)
			tc.then(t, e)
			then := e.grants[len(e.grants)-1]
			drain(t, eng)
			if want := tc.want(read, then); len(e.invals) != len(want) || (len(want) > 0 && e.invals[0] != want[0]) ||
				(len(want) > 1 && e.invals[1] != want[1]) {
				t.Fatalf("self-invalidations %v, want %v", e.invals, want)
			}
		})
	}
}

// The one stale lapse its end cannot catch: core 0, still holding its Shared
// copy, is promoted through the owner's domain, and the grant lands in the
// very cycle the reservation ends — before the lapse notice, which is keyed
// by the directory's domain, and before the commit that would delete the
// record. The lapse must not take the Modified copy the grant has just
// installed.
func TestTimerSparesAGrantInItsOwnCycle(t *testing.T) {
	eng, e, d := setup()
	end := txn(t, e, 0, false) + readLease
	txn(t, e, 1, true)
	forwarded := timing.Net + timing.L2Tag + timing.Net + timing.Inval + timing.Net
	eng.At(end-forwarded, func() { d.Submit(&coherence.Request{Core: 0, Line: ln7, Excl: true}) })
	drain(t, eng)
	if got := e.grants[len(e.grants)-1]; got != end || e.probes != 1 {
		t.Fatalf("granted at %d through %d probes, want %d and 1: the scenario drifted", got, e.probes, end)
	}
	if v := d.View(ln7); len(e.invals) != 0 || v.State != "M" || v.Owner != 0 {
		t.Fatalf("self-invalidations %v, line %+v; want none and core 0 the owner", e.invals, v)
	}
}

// A lease that starts with the grant is reported before the line's commit,
// which sets rts: the extension waits in the pending transition and survives
// it. A release truncates it to what is still needed.
func TestLeaseExtensionSurvivesCommitOrder(t *testing.T) {
	eng, e, d := setup()
	e.leaseDur = 5000
	read := txn(t, e, 1, false) // a reservation the truncation must respect
	d.Submit(&coherence.Request{Core: 0, Line: ln7, Excl: true, Lease: true})
	if err := eng.Run(read + 200); err != nil {
		t.Fatal(err)
	}
	grant := e.grants[1]
	if v := d.View(ln7); v.Owner != 0 || v.RTS != grant+5000 || v.WTS != read+2001 {
		t.Fatalf("leased at %d for 5000: %+v", grant, v)
	}
	d.LeaseReleased(0, ln7)
	if v := d.View(ln7); v.RTS != v.WTS {
		t.Fatalf("released: rts %d, want wts %d (core 1's reservation ends before it)", v.RTS, v.WTS)
	}

	// A lease on a line already owned extends rts at once; releasing it at a
	// later cycle truncates to that cycle.
	d.LeaseStarted(0, ln7, 9000)
	if v := d.View(ln7); v.RTS != eng.Now()+9000 {
		t.Fatalf("lease of an owned line at %d: rts %d", eng.Now(), v.RTS)
	}
	d.LeaseStarted(1, ln7, 50_000) // not the owner: ignored
	eng.At(read+4000, func() { d.LeaseReleased(0, ln7) })
	drain(t, eng)
	if v := d.View(ln7); v.RTS != read+4000 || v.WTS > v.RTS {
		t.Fatalf("released at %d: %+v", read+4000, v)
	}
}

// An eviction notice takes the hop it is charged for. A request that races a
// writeback finds the owner still recorded and resolves through the probe
// path; the notice, arriving second, finds ownership moved on and is dropped.
func TestEvictionNoticesTakeAHop(t *testing.T) {
	eng, e, d := setup()
	txn(t, e, 1, true)
	start := eng.Now()
	d.Submit(&coherence.Request{Core: 0, Line: ln7, Excl: true})
	if err := eng.Run(start + 5); err != nil {
		t.Fatal(err)
	}
	d.Writeback(1, ln7) // lands at start+5+Net, the request at start+Net
	if v := d.View(ln7); v.State != "M" || v.Owner != 1 {
		t.Fatalf("the writeback was applied at once: %+v", v)
	}
	drain(t, eng)
	if e.msgs[coherence.MsgForward] != 1 || e.probes != 1 || e.msgs[coherence.MsgWriteback] != 1 {
		t.Fatalf("%d forwards, %d probes, %d writebacks; want 1 each", e.msgs[coherence.MsgForward], e.probes, e.msgs[coherence.MsgWriteback])
	}
	if v := d.View(ln7); v.State != "M" || v.Owner != 0 {
		t.Fatalf("after the race: %+v, want core 0 the owner", v)
	}

	// With no request in the way the notice surrenders ownership, a hop later.
	d.Writeback(0, ln7)
	if err := eng.Run(eng.Now() + timing.Net); err != nil {
		t.Fatal(err)
	}
	if st := d.View(ln7).State; st != "M" {
		t.Fatalf("before the notice has landed the line is %s", st)
	}
	drain(t, eng)
	if st := d.View(ln7).State; st != "I" {
		t.Fatalf("after the notice the line is %s, want I", st)
	}

	// A Shared eviction drops the reservation record a hop later too.
	txn(t, e, 2, false)
	d.SharerDrop(2, ln7)
	if d.View(ln7).Sharers != 1<<2 {
		t.Fatal("the drop was applied at once")
	}
	drain(t, eng)
	if d.View(ln7).Sharers != 0 || len(e.invals) != 0 {
		t.Fatalf("after the drop: %+v, self-invalidations %v", d.View(ln7), e.invals)
	}
}
