package coherence_test

import (
	"slices"
	"testing"

	"leaserelease/internal/cache"
	. "leaserelease/internal/coherence"
	"leaserelease/internal/coherence/tardis"
	"leaserelease/internal/mem"
	"leaserelease/internal/sim"
)

// mockEnv records protocol callbacks and lets tests defer probes.
type mockEnv struct {
	msgs      [NumMsgKinds]int
	l2, dram  int
	completes []struct {
		req *Request
		st  cache.State
		at  sim.Time
	}
	invals []struct {
		core int
		line mem.Line
	}
	probes    []*Request
	deferNext bool
	eng       *sim.Engine
}

func (m *mockEnv) DeliverProbe(owner int, req *Request) bool {
	if m.deferNext {
		m.probes = append(m.probes, req)
		return true
	}
	return false
}
func (m *mockEnv) Invalidate(core int, line mem.Line) {
	m.invals = append(m.invals, struct {
		core int
		line mem.Line
	}{core, line})
}
func (m *mockEnv) Complete(req *Request, st cache.State) {
	m.completes = append(m.completes, struct {
		req *Request
		st  cache.State
		at  sim.Time
	}{req, st, m.eng.Now()})
}
func (m *mockEnv) CountMsg(kind MsgKind, n int) { m.msgs[kind] += n }
func (m *mockEnv) CountL2()                     { m.l2++ }
func (m *mockEnv) CountDRAM()                   { m.dram++ }

var testTiming = Timing{Net: 10, L2Tag: 2, L2Data: 5, Inval: 1, DRAM: 50}

// backends are the two line policies, each on the one Directory: what the
// transport does is tested on both.
var backends = []struct {
	name string
	new  func(*sim.Engine, Env, Timing) *Directory
}{
	{ProtocolMSI, NewDirectory},
	{ProtocolTardis, newTardis},
}

func newTardis(eng *sim.Engine, env Env, t Timing) *Directory {
	return tardis.New(eng, env, t, tardis.Config{}, 4)
}

func setup(t *testing.T) (*sim.Engine, *mockEnv, *Directory) {
	eng := sim.NewEngine()
	env := &mockEnv{eng: eng}
	return eng, env, NewDirectory(eng, env, testTiming)
}

// onBothBackends runs test once per line policy.
func onBothBackends(t *testing.T, test func(t *testing.T, eng *sim.Engine, env *mockEnv, d *Directory)) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			eng := sim.NewEngine()
			env := &mockEnv{eng: eng}
			d := b.new(eng, env, testTiming)
			if d.Name() != b.name {
				t.Fatalf("the directory calls its protocol %q", d.Name())
			}
			test(t, eng, env, d)
		})
	}
}

func wantOwner(t *testing.T, d *Directory, l mem.Line, owner int) {
	t.Helper()
	if v := d.View(l); v.State != "M" || v.Owner != owner {
		t.Fatalf("line %d is %s owned by %d, want M/%d", l, v.State, v.Owner, owner)
	}
}

func TestColdFillTimingAndState(t *testing.T) {
	eng, env, d := setup(t)
	req := &Request{Core: 0, Line: 7, Excl: true}
	d.Submit(req)
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(env.completes) != 1 {
		t.Fatalf("completes = %d, want 1", len(env.completes))
	}
	c := env.completes[0]
	if c.st != cache.Modified {
		t.Fatalf("state = %v, want M", c.st)
	}
	// Net + (L2Tag + L2Data + DRAM) + Net = 10+2+5+50+10 = 77.
	if c.at != 77 {
		t.Fatalf("completion at %d, want 77", c.at)
	}
	wantOwner(t, d, 7, 0)
	if env.dram != 1 || env.l2 != 1 {
		t.Fatalf("dram=%d l2=%d, want 1/1", env.dram, env.l2)
	}
	if env.msgs[MsgRequest] != 1 || env.msgs[MsgReply] != 1 {
		t.Fatalf("msgs = %v", env.msgs)
	}
}

func TestWarmSharedFill(t *testing.T) {
	eng, env, d := setup(t)
	d.Submit(&Request{Core: 0, Line: 3, Excl: false})
	eng.Drain()
	d.Submit(&Request{Core: 1, Line: 3, Excl: false})
	eng.Drain()
	if v := d.View(3); v.State != "S" || v.Sharers != 0b11 {
		t.Fatalf("dir = %s sharers %b, want S/11", v.State, v.Sharers)
	}
	if env.dram != 1 {
		t.Fatalf("dram = %d, want 1 (second fill is warm)", env.dram)
	}
}

func TestSharedToModifiedInvalidates(t *testing.T) {
	eng, env, d := setup(t)
	d.Submit(&Request{Core: 0, Line: 3, Excl: false})
	d.Submit(&Request{Core: 1, Line: 3, Excl: false})
	eng.Drain()
	d.Submit(&Request{Core: 1, Line: 3, Excl: true}) // upgrade, inval core 0
	eng.Drain()
	if len(env.invals) != 1 || env.invals[0].core != 0 {
		t.Fatalf("invals = %v, want core 0 only", env.invals)
	}
	wantOwner(t, d, 3, 1)
	if env.msgs[MsgInval] != 1 || env.msgs[MsgAck] != 1 {
		t.Fatalf("msgs = %v", env.msgs)
	}
}

func TestForwardToOwner(t *testing.T) {
	eng, env, d := setup(t)
	d.Submit(&Request{Core: 0, Line: 3, Excl: true})
	eng.Drain()
	d.Submit(&Request{Core: 1, Line: 3, Excl: false}) // GetS: owner downgrades to S
	eng.Drain()
	if v := d.View(3); v.State != "S" || v.Sharers != 0b11 {
		t.Fatalf("dir = %s sharers %b, want S with both", v.State, v.Sharers)
	}
	if env.msgs[MsgForward] != 1 {
		t.Fatalf("forwards = %d, want 1", env.msgs[MsgForward])
	}
}

func TestPerLineFIFOOrder(t *testing.T) {
	onBothBackends(t, func(t *testing.T, eng *sim.Engine, env *mockEnv, d *Directory) {
		// Three writers contend on one line; completions must be FIFO by
		// submission and strictly serialized.
		d.Submit(&Request{Core: 0, Line: 9, Excl: true})
		d.Submit(&Request{Core: 1, Line: 9, Excl: true})
		d.Submit(&Request{Core: 2, Line: 9, Excl: true})
		eng.Drain()
		if len(env.completes) != 3 {
			t.Fatalf("completes = %d, want 3", len(env.completes))
		}
		for i, c := range env.completes {
			if c.req.Core != i {
				t.Fatalf("completion %d for core %d: FIFO violated", i, c.req.Core)
			}
			if i > 0 && c.at <= env.completes[i-1].at {
				t.Fatalf("completions not serialized: %v", env.completes)
			}
		}
		wantOwner(t, d, 9, 2)
	})
}

func TestIndependentLinesProgressIndependently(t *testing.T) {
	eng, env, d := setup(t)
	// Assumption 1: requests on distinct lines do not queue behind each
	// other.
	d.Submit(&Request{Core: 0, Line: 1, Excl: true})
	d.Submit(&Request{Core: 1, Line: 2, Excl: true})
	eng.Drain()
	if len(env.completes) != 2 {
		t.Fatal("both requests must complete")
	}
	if env.completes[0].at != env.completes[1].at {
		t.Fatalf("parallel cold fills completed at %d and %d, want same cycle",
			env.completes[0].at, env.completes[1].at)
	}
}

func TestDeferredProbeStallsLineOnly(t *testing.T) {
	onBothBackends(t, func(t *testing.T, eng *sim.Engine, env *mockEnv, d *Directory) {
		d.Submit(&Request{Core: 0, Line: 5, Excl: true})
		eng.Drain()
		env.deferNext = true
		d.Submit(&Request{Core: 1, Line: 5, Excl: true}) // probe deferred at core 0
		d.Submit(&Request{Core: 2, Line: 6, Excl: true}) // other line: must complete
		eng.Drain()
		if len(env.probes) != 1 {
			t.Fatalf("deferred probes = %d, want 1", len(env.probes))
		}
		done := 0
		for _, c := range env.completes {
			if c.req.Core == 2 {
				done++
			}
			if c.req.Core == 1 {
				t.Fatal("deferred request completed without ProbeDone")
			}
		}
		if done != 1 {
			t.Fatal("independent line was stalled by a deferred probe")
		}
		if d.Stats.DeferredProbes != 1 {
			t.Fatalf("DeferredProbes = %d", d.Stats.DeferredProbes)
		}
		// Now release: ProbeDone resumes the stalled transaction.
		env.deferNext = false
		d.ProbeDone(0, env.probes[0])
		eng.Drain()
		wantOwner(t, d, 5, 1)
	})
}

func TestQueueBehindDeferredProbe(t *testing.T) {
	onBothBackends(t, func(t *testing.T, eng *sim.Engine, env *mockEnv, d *Directory) {
		d.Submit(&Request{Core: 0, Line: 5, Excl: true})
		eng.Drain()
		env.deferNext = true
		d.Submit(&Request{Core: 1, Line: 5, Excl: true})
		eng.Drain()
		env.deferNext = false
		d.Submit(&Request{Core: 2, Line: 5, Excl: true}) // queues at directory
		eng.Drain()
		if v := d.View(5); v.QueueLen != 2 || !v.Busy { // one in service + one queued
			t.Fatalf("QueueLen = %d, busy %v; want 2, true", v.QueueLen, v.Busy)
		}
		d.ProbeDone(0, env.probes[0])
		eng.Drain()
		// Both queued requests complete in order; core 2's probe is NOT
		// deferred (deferNext off), so everything drains.
		wantOwner(t, d, 5, 2)
		if d.Stats.MaxQueue < 2 {
			t.Fatalf("MaxQueue = %d, want >= 2", d.Stats.MaxQueue)
		}
	})
}

func TestWritebackInvalidatesDirState(t *testing.T) {
	eng, _, d := setup(t)
	d.Submit(&Request{Core: 0, Line: 4, Excl: true})
	eng.Drain()
	d.Writeback(0, 4) // async: the notice takes one network hop
	eng.Drain()
	if st := d.View(4).State; st != "I" {
		t.Fatalf("dir after writeback = %s, want I", st)
	}
	// Stale writeback from a non-owner is ignored.
	d.Submit(&Request{Core: 1, Line: 4, Excl: true})
	eng.Drain()
	d.Writeback(0, 4)
	eng.Drain()
	wantOwner(t, d, 4, 1)
}

func TestSharerDrop(t *testing.T) {
	eng, _, d := setup(t)
	d.Submit(&Request{Core: 0, Line: 4, Excl: false})
	d.Submit(&Request{Core: 1, Line: 4, Excl: false})
	eng.Drain()
	d.SharerDrop(0, 4) // async: the notice takes one network hop
	eng.Drain()
	if sharers := d.View(4).Sharers; sharers != 0b10 {
		t.Fatalf("sharers = %b, want 10", sharers)
	}
}

// TestQueueLinkedThroughRequests pins the per-line FIFO, linked through its
// requests: three requests on one line complete in arrival order, View's
// QueueLen counts the two waiting and the one in service, and a drained queue
// holds no link — its head, its tail and every request's next are nil.
func TestQueueLinkedThroughRequests(t *testing.T) {
	onBothBackends(t, func(t *testing.T, eng *sim.Engine, env *mockEnv, d *Directory) {
		const line = mem.Line(9)
		d.Submit(&Request{Core: 3, Line: line, Excl: true})
		eng.Drain()
		env.deferNext = true // core 3 defers the first probe: its request stays in service
		var reqs []*Request
		for c := 0; c < 3; c++ {
			reqs = append(reqs, &Request{Core: c, Line: line, Excl: true})
			d.Submit(reqs[c])
		}
		eng.Drain()
		if v := d.View(line); v.QueueLen != 3 || !v.Busy {
			t.Fatalf("QueueLen = %d, busy %v; want 3 (one in service, two waiting), true", v.QueueLen, v.Busy)
		}
		env.deferNext = false
		env.completes = env.completes[:0]
		d.ProbeDone(3, env.probes[0])
		eng.Drain()
		if len(env.completes) != 3 {
			t.Fatalf("%d completions, want 3", len(env.completes))
		}
		for i, c := range env.completes {
			if c.req != reqs[i] {
				t.Fatalf("completion %d went to core %d", i, c.req.Core)
			}
		}
		if v := d.View(line); v.QueueLen != 0 || Linked(d, line, reqs) {
			t.Fatalf("drained queue: QueueLen %d, or a head, tail or next still set", v.QueueLen)
		}
	})
}

// TestRequestCallbacksFollowTheDirectory: a request's hop callbacks are bound
// by the first directory that sees it, outlive Reset, and are rebound when
// the request is submitted to another directory — of either protocol.
func TestRequestCallbacksFollowTheDirectory(t *testing.T) {
	onBothBackends(t, func(t *testing.T, eng *sim.Engine, env *mockEnv, d *Directory) {
		req := new(Request)
		req.Reset(2, 7, true, false)
		d.Submit(req)
		eng.Drain()
		if to, _ := Bound(req); to != d || len(env.completes) != 1 {
			t.Fatalf("bound to %p after Submit to %p, %d completions", to, d, len(env.completes))
		}

		req.Reset(2, 8, false, true)
		to, inService := Bound(req)
		if to != d {
			t.Fatal("Reset dropped the bound callbacks")
		}
		if req.Core != 2 || req.Line != 8 || req.Excl || !req.Lease || inService {
			t.Fatalf("Reset left %+v", req)
		}

		env2 := &mockEnv{eng: eng}
		d2 := NewDirectory(eng, env2, testTiming)
		d2.Submit(req)
		eng.Drain()
		if to, _ := Bound(req); to != d2 || len(env2.completes) != 1 || len(env.completes) != 1 {
			t.Fatalf("second directory: bound to %p, want %p; completions %d there, %d at the first",
				to, d2, len(env2.completes), len(env.completes))
		}
		if st := d.View(8).State; st != "I" {
			t.Fatalf("the first directory saw the second one's request: line 8 is %s there", st)
		}
		if v := d2.View(8); v.State != "S" || v.Sharers != 1<<2 {
			t.Fatalf("second directory: line 8 is %s sharers %b, want S/100", v.State, v.Sharers)
		}
	})
}

// firstDraws submits n requests at cycle 0 of a fresh directory, each on a
// line of its own, and returns the extra cycles each one's hop was drawn:
// the directory's first n jitter draws, which every fresh directory of the
// policy repeats. Each Submit queues exactly one event, the arrival.
func firstDraws(t *testing.T, newDir func(*sim.Engine, Env, Timing) *Directory, tm Timing, n int) []sim.Time {
	t.Helper()
	eng := sim.NewEngine()
	d := newDir(eng, &mockEnv{eng: eng}, tm)
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = &Request{Core: i % 4, Line: mem.Line(1000 + i)}
		d.Submit(reqs[i])
		if p := eng.Pending(); p != i+1 {
			t.Fatalf("%d events pending after %d Submits, want one each", p, i+1)
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	draws := make([]sim.Time, n)
	for i, r := range reqs {
		draws[i] = r.Stamps.Arrive - tm.Net
	}
	return draws
}

// TestRequestReachesDirectoryInOneEvent: a request's hop is one event, its
// jitter drawn at send. Requests sent in one cycle join the line's FIFO in
// (arrival cycle, send order). A jittered arrival that lands in the cycle of
// a commit on its line runs after the commit, so it finds the line idle;
// under Tardis a tag-only renewal's commit is pushed after the request was
// sent, which only the network domain's place in the event key orders right.
func TestRequestReachesDirectoryInOneEvent(t *testing.T) {
	tm := testTiming
	tm.NetJitter = 4
	const n = 16
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			draws := firstDraws(t, b.new, tm, n)
			if !slices.Contains(draws, 0) || slices.Max(draws[2:]) < 3 || slices.Max(draws) > tm.NetJitter {
				t.Fatalf("draws %v: want a 0, one of 3 or more after the first two, none above %d", draws, tm.NetJitter)
			}

			// Eight writers on one line, sent in core order at cycle 0.
			eng := sim.NewEngine()
			env := &mockEnv{eng: eng}
			d := b.new(eng, env, tm)
			want := make([]int, 8)
			for c := range want {
				want[c] = c
				d.Submit(&Request{Core: c, Line: 9, Excl: true})
			}
			slices.SortStableFunc(want, func(a, b int) int { return int(draws[a]) - int(draws[b]) })
			if err := eng.Drain(); err != nil {
				t.Fatal(err)
			}
			var got []int
			for _, c := range env.completes {
				got = append(got, c.req.Core)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("draws %v: served cores %v, want %v", draws[:8], got, want)
			}

			// Core 0 reads line 5, then reads it again (R1; under Tardis a
			// tag-only renewal) while core 1's read (R2) is drawn to land in
			// the cycle R1 commits. Requests on other lines skip the draws
			// before the first of 3 or more.
			k := 2
			for draws[k] < 3 {
				k++
			}
			scenario := func(sendR2 sim.Time) (d *Directory, r1, r2 *Request, r1Done sim.Time) {
				eng := sim.NewEngine()
				env := &mockEnv{eng: eng}
				d = b.new(eng, env, tm)
				d.Submit(&Request{Core: 0, Line: 5})
				if err := eng.Drain(); err != nil {
					t.Fatal(err)
				}
				env.completes = nil
				r1, r2 = &Request{Core: 0, Line: 5}, &Request{Core: 1, Line: 5}
				d.Submit(r1)
				if sendR2 > 0 {
					eng.Domain(1).At(sendR2, func() {
						for i := 2; i < k; i++ {
							d.Submit(&Request{Core: 2, Line: mem.Line(100 + i)})
						}
						d.Submit(r2)
					})
				}
				if err := eng.Drain(); err != nil {
					t.Fatal(err)
				}
				return d, r1, r2, env.completes[0].at
			}
			_, _, _, commit := scenario(0) // R1 alone: its grant and commit cycle
			sent := commit - tm.Net - draws[k]
			d, r1, r2, _ := scenario(sent)
			if r2.Stamps.Arrive != commit || r2.Stamps.Service != commit {
				t.Fatalf("R2 arrived at %d and entered service at %d; want both at R1's commit, %d",
					r2.Stamps.Arrive, r2.Stamps.Service, commit)
			}
			if d.Stats.MaxQueue != 1 {
				t.Errorf("R2 queued behind R1 (max queue %d): its arrival ran before R1's commit", d.Stats.MaxQueue)
			}
			if b.name == ProtocolTardis && (!r1.Stamps.Renewal || r1.Stamps.Service <= sent) {
				t.Errorf("R1 renewal %v, its commit pushed at %d, R2 sent at %d: want a renewal whose commit is pushed after R2 is sent",
					r1.Stamps.Renewal, r1.Stamps.Service, sent)
			}
		})
	}
}
