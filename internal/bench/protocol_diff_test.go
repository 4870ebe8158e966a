package bench

import (
	"bytes"
	"sort"
	"testing"

	"leaserelease/internal/coherence"
	"leaserelease/internal/ds"
	"leaserelease/internal/machine"
	"leaserelease/internal/telemetry"
)

// This file is the cross-protocol differential suite: the same fixed-work
// programs run under directory MSI and under Tardis with identical seeds,
// and everything that is *semantic* — final values, conservation
// multisets, the span-sum and ledger-conservation identities — must agree
// exactly. Timing (ops, cycles, message mix) legitimately differs between
// backends and is never compared here.

// protoConfigs returns one default config per protocol backend, identical
// except for the Protocol field.
func protoConfigs(cores int) map[string]machine.Config {
	out := make(map[string]machine.Config, 2)
	for _, proto := range coherence.Protocols() {
		cfg := machine.DefaultConfig(cores)
		cfg.Protocol = proto
		out[proto] = cfg
	}
	return out
}

// TestProtocolDifferentialCounter: the fig2 primitive (leased CAS counter)
// with a fixed op budget must produce the same final value on every
// backend — atomicity is protocol-independent.
func TestProtocolDifferentialCounter(t *testing.T) {
	const cores, per = 4, 200
	for proto, cfg := range protoConfigs(cores) {
		m := machine.New(cfg)
		ctr := m.Direct().Alloc(8)
		for i := 0; i < cores; i++ {
			m.Spawn(0, func(c *machine.Ctx) {
				for n := 0; n < per; n++ {
					c.Lease(ctr, 5000)
					for {
						v := c.Load(ctr)
						if c.CAS(ctr, v, v+1) {
							break
						}
					}
					c.Release(ctr)
				}
			})
		}
		if err := m.Drain(); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if got := m.Peek(ctr); got != cores*per {
			t.Errorf("%s: counter = %d, want %d", proto, got, cores*per)
		}
		if err := m.VerifyCoherence(); err != nil {
			t.Errorf("%s: %v", proto, err)
		}
	}
}

// TestProtocolDifferentialStack: concurrent leased Treiber pushes under
// both backends; the surviving multiset must be exactly the pushed
// multiset on each, so the two backends pop identical sorted contents.
func TestProtocolDifferentialStack(t *testing.T) {
	const pushers, per = 4, 50
	contents := make(map[string][]uint64)
	for proto, cfg := range protoConfigs(pushers + 1) {
		m := machine.New(cfg)
		s := ds.NewStack(m.Direct(), ds.StackOptions{Lease: 20000})
		done := m.Direct().Alloc(8)
		for i := 0; i < pushers; i++ {
			id := i
			m.Spawn(0, func(c *machine.Ctx) {
				for n := 0; n < per; n++ {
					s.Push(c, uint64(id)<<32|uint64(n)+1)
				}
				for {
					v := c.Load(done)
					if c.CAS(done, v, v+1) {
						break
					}
				}
			})
		}
		// The popper drains the stack only after every pusher checked in,
		// so the surviving multiset is the complete pushed multiset.
		var got []uint64
		m.Spawn(0, func(c *machine.Ctx) {
			for c.Load(done) != pushers {
				c.Work(500)
			}
			for {
				v, ok := s.Pop(c)
				if !ok {
					break
				}
				got = append(got, v)
			}
		})
		if err := m.Drain(); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		const want = pushers * per
		if len(got) != want {
			t.Fatalf("%s: popped %d values, want %d", proto, len(got), want)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		contents[proto] = got
		if err := m.VerifyCoherence(); err != nil {
			t.Errorf("%s: %v", proto, err)
		}
	}
	msi, trd := contents[coherence.ProtocolMSI], contents[coherence.ProtocolTardis]
	for i := range msi {
		if msi[i] != trd[i] {
			t.Fatalf("sorted stack contents diverge at %d: msi %#x, tardis %#x", i, msi[i], trd[i])
		}
	}
}

// TestProtocolSpanLedgerIdentities: the two accounting identities hold on
// every backend — each completed span's phases partition its latency
// exactly (so the six-phase table always sums to 100%, whether the inval
// column means invalidation fan-out or renew-extend), and the lease
// ledger conserves granted cycles (granted == used + unused).
func TestProtocolSpanLedgerIdentities(t *testing.T) {
	for proto, cfg := range protoConfigs(8) {
		cfg.Seed = 1
		rec := telemetry.NewRecorder()
		kept := keepSpans(rec)
		sp := rec.Spans
		r := ThroughputOpts(cfg, 8, 20_000, 100_000,
			CounterWorkload(CounterLeasedTTS), Options{Recorder: rec})
		if r.Err != nil {
			t.Fatalf("%s: run failed: %v", proto, r.Err)
		}

		if len(*kept) == 0 {
			t.Fatalf("%s: no spans completed on a contended run", proto)
		}
		for _, s := range *kept {
			var sum uint64
			for _, c := range s.Phases {
				sum += c
			}
			if sum != s.Total() {
				t.Fatalf("%s: span %#x phases %v sum to %d, want total %d",
					proto, s.ID, s.Phases, sum, s.Total())
			}
		}
		st := sp.Stats()
		var phaseSum uint64
		for _, c := range st.Phase {
			phaseSum += c
		}
		if phaseSum != st.SpanCycles {
			t.Errorf("%s: aggregate phases sum to %d, want SpanCycles %d",
				proto, phaseSum, st.SpanCycles)
		}
		// A write-hot counter exercises the rts-jump path (renewals need
		// re-reads of unwritten lines, which this workload never does).
		if proto == coherence.ProtocolTardis && r.Window.RTSJumps == 0 {
			t.Errorf("%s: leased counter never jumped an rts reservation", proto)
		}

		led := r.LeaseLedger
		if led == nil || led.Leases == 0 {
			t.Fatalf("%s: leased run produced no ledger", proto)
		}
		if led.GrantedCycles != led.UsedCycles+led.UnusedCycles {
			t.Errorf("%s: ledger does not conserve: granted %d != used %d + unused %d",
				proto, led.GrantedCycles, led.UsedCycles, led.UnusedCycles)
		}
	}
}

// TestTardisSweepDeterministicAcrossPoolSizes extends the -parallel
// byte-identity contract to the Tardis backend and to the two-protocol
// compare experiment itself.
func TestTardisSweepDeterministicAcrossPoolSizes(t *testing.T) {
	for _, tc := range []struct {
		id       string
		protocol string
	}{
		{"fig2", coherence.ProtocolTardis},
		{"fig3-counter", coherence.ProtocolTardis},
		{"protocol-compare", ""},
	} {
		e, ok := find(tc.id)
		if !ok {
			t.Fatalf("experiment %q not found", tc.id)
		}
		p := Params{Threads: []int{2, 4}, Warm: 20_000, Window: 60_000, Protocol: tc.protocol}

		var serial bytes.Buffer
		p.Pool = nil
		e.Run(&serial, p)

		var parallel bytes.Buffer
		p.Pool = NewPool(8)
		e.Run(&parallel, p)
		p.Pool.Close()

		if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
			t.Errorf("%s/%s: -parallel 8 output differs from serial run:\nserial:\n%s\nparallel:\n%s",
				tc.id, tc.protocol, serial.String(), parallel.String())
		}
		if serial.Len() == 0 {
			t.Errorf("%s: experiment produced no output", tc.id)
		}
	}
}
