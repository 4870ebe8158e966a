package machine

import (
	"testing"

	"leaserelease/internal/coherence"
	"leaserelease/internal/faults"
	"leaserelease/internal/mem"
	"leaserelease/internal/telemetry"
)

// trafficWorkload runs four cores over three L1 sets' worth of lines in one
// set, so lines are evicted clean and dirty and re-fetched: loads, stores,
// and leases held one or three at a time, which pin the set until a full
// one forces a release. It drains the machine and returns it.
func trafficWorkload(t *testing.T, proto string, f faults.Config, observe func(*telemetry.Bus)) *Machine {
	t.Helper()
	const cores = 4
	cfg := testConfig(cores)
	cfg.Protocol, cfg.Faults = proto, f
	m := New(cfg)
	observe(m.Telemetry())
	sets := cfg.L1.SizeBytes / mem.LineSize / cfg.L1.Ways
	n := cfg.L1.Ways * 3
	base := m.Direct().Alloc(uint64(n * sets * mem.LineSize))
	addr := func(c *Ctx) mem.Addr { return base + mem.Addr(c.Rand().Intn(n)*sets*mem.LineSize) }
	for range cores {
		m.Spawn(0, func(c *Ctx) {
			for range 300 {
				a := addr(c)
				switch c.Rand().Intn(4) {
				case 0:
					c.Load(a)
				case 1:
					c.Store(a, c.Rand().Next())
				case 2:
					c.Lease(a, 400)
					c.Store(a, c.Load(a)+1)
					c.Release(a)
				default:
					// Three leases in one set: under capacity pressure
					// (two ways) the third install forces a release.
					b, d := addr(c), addr(c)
					if a == b || b == d || a == d {
						continue
					}
					for _, x := range []mem.Addr{a, b, d} {
						c.Lease(x, 400)
						c.Store(x, c.Load(x)+1)
					}
					for _, x := range []mem.Addr{d, b, a} {
						c.Release(x)
					}
				}
			}
		})
	}
	if err := m.Drain(); err != nil {
		t.Fatal(err)
	}
	return m
}

var trafficProfiles = []struct {
	name string
	f    faults.Config
}{
	{"clean", faults.Config{}},
	// Message jitter, directory stalls, L1 capacity pressure, early lease
	// cuts.
	{"faults", faults.DefaultConfig()},
}

// The directory counts each line's traffic on its record at the instants the
// bus carries it: a subscriber that folds CatCoherence, CatDirQueue and
// CatCache per line agrees with the bus's TrafficSource on every line, under
// both protocols, clean and faulted, through writebacks, sharer drops and
// forced releases.
func TestDirectoryCountsWhatTheBusCarries(t *testing.T) {
	for _, proto := range coherence.Protocols() {
		for _, p := range trafficProfiles {
			t.Run(proto+"/"+p.name, func(t *testing.T) {
				want := map[mem.Line]*telemetry.Traffic{}
				at := func(l mem.Line) *telemetry.Traffic {
					if want[l] == nil {
						want[l] = new(telemetry.Traffic)
					}
					return want[l]
				}
				var evictions uint64
				m := trafficWorkload(t, proto, p.f, func(b *telemetry.Bus) {
					b.Subscribe(telemetry.CatCoherence, func(e telemetry.Event) {
						s := at(e.Line)
						s.Msgs += e.Val
						if e.Kind == telemetry.MsgInval || e.Kind == telemetry.MsgForward {
							s.Invals += e.Val
						}
					})
					b.Subscribe(telemetry.CatDirQueue, func(e telemetry.Event) {
						at(e.Line).MaxQueue = max(at(e.Line).MaxQueue, e.Val)
					})
					b.Subscribe(telemetry.CatCache, func(e telemetry.Event) {
						at(e.Line).Evictions++
						evictions++
					})
				})
				src := m.Telemetry().Traffic
				got := 0
				for l, tr := range src.AllTraffic() {
					got++
					if w := want[l]; w == nil || *w != tr {
						t.Errorf("line %#x: directory counts %+v, the bus carried %+v", uint64(l), tr, w)
					}
				}
				for l, w := range want {
					if tr := src.LineTraffic(l); tr != *w {
						t.Errorf("line %#x: LineTraffic %+v, the bus carried %+v", uint64(l), tr, *w)
					}
				}
				if got != len(want) {
					t.Errorf("the directory counts %d lines, the bus carried %d", got, len(want))
				}
				s := m.Stats()
				wb := s.Msgs[coherence.MsgWriteback]
				t.Logf("%d lines, %d evictions (%d writebacks), %d forced releases", got, evictions, wb, s.ForcedReleases)
				if wb == 0 || evictions <= wb {
					t.Errorf("%d evictions, %d writebacks: want dirty and clean evictions both", evictions, wb)
				}
				if p.f != (faults.Config{}) && s.ForcedReleases == 0 {
					t.Error("no forced release under L1 capacity pressure")
				}
			})
		}
	}
}

// A traced run delivers exactly one CatTxn event per coherence
// transaction: a TxnComplete with its stamps, one per request the cores
// sent, each ID once, its stamps in step order.
func TestOneTxnEventPerTransaction(t *testing.T) {
	for _, proto := range coherence.Protocols() {
		for _, p := range trafficProfiles {
			t.Run(proto+"/"+p.name, func(t *testing.T) {
				ids := map[uint64]bool{}
				m := trafficWorkload(t, proto, p.f, func(b *telemetry.Bus) {
					b.Subscribe(telemetry.CatTxn, func(e telemetry.Event) {
						st := e.Stamps
						if e.Kind != telemetry.TxnComplete || st == nil || ids[e.Val] {
							t.Fatalf("event %+v: want one stamped completion per transaction", e)
						}
						ids[e.Val] = true
						end := st.Service
						if st.Owner >= 0 {
							end = st.ProbeDone
						}
						if st.Begin > st.Arrive || st.Arrive > st.Service || end > e.Time {
							t.Fatalf("transaction %#x: stamps %+v out of order, completed at %d", e.Val, *st, e.Time)
						}
					})
				})
				if reqs := m.Stats().Msgs[coherence.MsgRequest]; uint64(len(ids)) != reqs || reqs == 0 {
					t.Errorf("%d CatTxn events for %d requests", len(ids), reqs)
				}
			})
		}
	}
}
