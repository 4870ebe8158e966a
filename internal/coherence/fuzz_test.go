package coherence_test

import (
	"testing"

	"leaserelease/internal/cache"
	"leaserelease/internal/coherence"
	"leaserelease/internal/faults"
	"leaserelease/internal/mem"
	"leaserelease/internal/sim"
)

// FuzzDirectory drives the directory controller with byte-derived but
// protocol-legal interleavings of requests, writebacks, silent sharer
// drops, and probe deferrals (the lease mechanism's directory-visible
// behaviour), against a model environment that mirrors every L1 state
// transition the Env callbacks imply. At quiescence every request has
// completed and the directory's committed state must agree with the model,
// as the policy's own VerifyLine judges it with the model's copies for L1s:
// single writer, sharer-set containment, no copies of an Invalid line.
//
// The same corpus is fuzzed twice per input — once fault-free, once with
// deterministic fault injection — so injected stalls and latency jitter
// are continuously checked to be protocol-preserving.
func FuzzDirectory(f *testing.F) { fuzzDirectory(f, coherence.NewDirectory) }

// FuzzTardis is FuzzDirectory on the Tardis policy: same op decoder, same
// model; its VerifyLine adds the timestamp order and that no Shared copy
// outlives its reservation.
func FuzzTardis(f *testing.F) {
	f.Add([]byte{0x00, 0xff, 0x00, 0xff, 0x11, 0x00, 0x05, 0x00, 0x01, 0x40}) // reads, a long pause, a renewal, writes under reservations
	f.Add([]byte{0x01, 0xff, 0x04, 0xff})                                     // a read forwarded to the owner: the grant ends its ownership
	fuzzDirectory(f, newTardis)
}

type newDirectory = func(*sim.Engine, coherence.Env, coherence.Timing) *coherence.Directory

func fuzzDirectory(f *testing.F, build newDirectory) {
	f.Add([]byte{0x01, 0x12, 0x23, 0x30, 0x41, 0x52})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0xff, 0x81, 0x42, 0xc3, 0x24, 0xa5, 0x66, 0xe7, 0x08, 0x99})
	f.Add([]byte{0x10, 0x21, 0x32, 0x03, 0x14, 0x25, 0x36, 0x07, 0x18, 0x29,
		0x3a, 0x0b, 0x1c, 0x2d, 0x3e, 0x0f})

	f.Fuzz(func(t *testing.T, data []byte) {
		runDirectoryModel(t, build, data, faults.Config{})
		runDirectoryModel(t, build, data, faults.DefaultConfig())
	})
}

const (
	fzCores = 4
	fzLines = 4
)

// fuzzEnv is a model implementation of coherence.Env: it tracks the L1
// state every callback implies and flags protocol-illegal callbacks.
type fuzzEnv struct {
	t   *testing.T
	eng *sim.Engine
	d   *coherence.Directory

	// copies[c][l] is core c's modeled L1 state for line l (absent = I).
	copies [fzCores]map[mem.Line]cache.State
	// outstanding marks cores with an in-flight request.
	outstanding [fzCores]bool
	// deferred marks (core,line) pairs with a probe queued behind a
	// modeled lease; such lines are pinned (no writeback).
	deferred map[[2]uint64]bool

	// byte-driven decisions
	bytes []byte
	pos   int
}

func (e *fuzzEnv) nextByte() byte {
	if e.pos >= len(e.bytes) {
		return 0
	}
	b := e.bytes[e.pos]
	e.pos++
	return b
}

func (e *fuzzEnv) key(core int, l mem.Line) [2]uint64 {
	return [2]uint64{uint64(core), uint64(l)}
}

func (e *fuzzEnv) DeliverProbe(owner int, req *coherence.Request) bool {
	if e.deferred[e.key(owner, req.Line)] {
		e.t.Fatalf("second probe delivered to core %d for line %#x while one is deferred (Proposition 1)",
			owner, uint64(req.Line))
	}
	if _, held := e.copies[owner][req.Line]; !held {
		// Owner already evicted (writeback raced the forward): nothing to
		// downgrade.
		return false
	}
	if e.nextByte()%4 == 0 { // model a lease: defer the probe
		k := e.key(owner, req.Line)
		e.deferred[k] = true
		delay := sim.Time(e.nextByte())*7 + 1
		e.eng.After(delay, func() {
			delete(e.deferred, k)
			e.downgrade(owner, req)
			e.d.ProbeDone(owner, req)
		})
		return true
	}
	e.downgrade(owner, req)
	return false
}

func (e *fuzzEnv) downgrade(owner int, req *coherence.Request) {
	if req.Excl {
		delete(e.copies[owner], req.Line)
	} else {
		e.copies[owner][req.Line] = cache.Shared
	}
}

func (e *fuzzEnv) Invalidate(core int, line mem.Line) {
	if st, held := e.copies[core][line]; held && st == cache.Modified {
		e.t.Fatalf("invalidate sent to core %d holding line %#x Modified", core, uint64(line))
	}
	delete(e.copies[core], line)
}

func (e *fuzzEnv) Complete(req *coherence.Request, st cache.State) {
	if !e.outstanding[req.Core] {
		e.t.Fatalf("completion for core %d with no outstanding request (line %#x)",
			req.Core, uint64(req.Line))
	}
	e.outstanding[req.Core] = false
	e.copies[req.Core][req.Line] = st
}

func (e *fuzzEnv) CountMsg(coherence.MsgKind, int) {}
func (e *fuzzEnv) CountL2()                        {}
func (e *fuzzEnv) CountDRAM()                      {}

func runDirectoryModel(t *testing.T, build newDirectory, data []byte, fcfg faults.Config) {
	eng := sim.NewEngine()
	env := &fuzzEnv{t: t, eng: eng, bytes: data, deferred: make(map[[2]uint64]bool)}
	for c := range env.copies {
		env.copies[c] = make(map[mem.Line]cache.State)
	}
	d := build(eng, env, coherence.DefaultTiming())
	d.Faults = faults.New(fcfg, 42)
	env.d = d

	lines := make([]mem.Line, fzLines)
	for i := range lines {
		lines[i] = mem.LineOf(mem.Addr(0x1000 + i*64))
	}

	// One op per 2 bytes: [op/core/line packed, delay]. Ops are validated
	// against the model at execution time so every issued request is legal.
	var step func(i int)
	step = func(i int) {
		if i+1 >= len(data) {
			return
		}
		b, delay := data[i], sim.Time(data[i+1])
		core := int(b>>2) % fzCores
		line := lines[int(b>>4)%fzLines]
		switch b % 4 {
		case 0, 1: // read (0) or exclusive (1) request
			excl := b%4 == 1
			st, held := env.copies[core][line]
			satisfied := held && (!excl || st == cache.Modified)
			if !env.outstanding[core] && !satisfied {
				env.outstanding[core] = true
				d.Submit(&coherence.Request{Core: core, Line: line, Excl: excl})
			}
		case 2: // dirty eviction
			if st, held := env.copies[core][line]; held && st == cache.Modified &&
				!env.deferred[env.key(core, line)] {
				delete(env.copies[core], line)
				d.Writeback(core, line)
			}
		case 3: // silent Shared drop
			if st, held := env.copies[core][line]; held && st == cache.Shared {
				delete(env.copies[core], line)
				d.SharerDrop(core, line)
			}
		}
		eng.After(delay+1, func() { step(i + 2) })
	}
	eng.After(0, func() { step(0) })
	if err := eng.Drain(); err != nil {
		t.Fatalf("engine did not drain: %v", err)
	}

	// Quiescent cross-check: directory state vs the model.
	for c := range env.outstanding {
		if env.outstanding[c] {
			t.Fatalf("core %d request never completed", c)
		}
	}
	for _, l := range lines {
		if d.View(l).Busy {
			t.Fatalf("line %#x still busy after drain", uint64(l))
		}
		if err := d.VerifyLine(l, fzCores, func(c int) cache.State { return env.copies[c][l] }); err != nil {
			t.Fatalf("%v (directory: %+v)", err, d.View(l))
		}
	}
}
