package coherence

import (
	"fmt"

	"leaserelease/internal/cache"
	"leaserelease/internal/mem"
	"leaserelease/internal/sim"
)

// NewDirectory builds an MSI directory over the given engine and
// environment.
func NewDirectory(eng *sim.Engine, env Env, t Timing) *Directory {
	return New(eng, env, t, new(msi), 0xD12EC7)
}

// msi is the MSI policy (MESI with Directory.MESI): the directory records an
// owner or a sharer set per line, forwards a request for an owned line to
// its owner, and invalidates the sharers before it grants a write. So what a
// core holds is reached only by a message to it, and msi does not implement
// Privacy: every copy is private. Its line records come from its slab.
type msi struct{ lines Slab[msiLine] }

func (*msi) Name() string { return ProtocolMSI }

func (m *msi) NewLine(mem.Line) *Line {
	e := m.lines.New()
	e.Policy = e
	return &e.Line
}

// MSI keeps all lease state on the core side and has no timestamps.
func (*msi) LeaseStarted(int, mem.Line, uint64) {}
func (*msi) LeaseReleased(int, mem.Line)        {}

type dirState uint8

const (
	dirI dirState = iota
	dirS
	dirM
)

func (s dirState) String() string { return [...]string{"I", "S", "M"}[s] }

type msiLine struct {
	Line

	owner   int
	sharers uint64 // bitset over cores; Directory supports at most 64 cores
	state   dirState

	// The transition Serve decided, applied by Commit.
	newState   dirState
	newOwner   int
	newSharers uint64
}

func (e *msiLine) Serve(req *Request) Decision {
	switch {
	case e.state == dirM && e.owner != req.Core:
		// The owner has the only valid copy: forward a probe to it.
		if req.Excl {
			e.newState, e.newOwner = dirM, req.Core
		} else {
			e.newState, e.newOwner, e.newSharers = dirS, 0, bit(e.owner)|bit(req.Core)
		}
		return Decision{Forward: true, Owner: e.owner}

	case e.state == dirS && req.Excl:
		// Invalidate all other sharers, then grant Modified.
		e.newState, e.newOwner = dirM, req.Core
		return Decision{Inval: e.sharers &^ bit(req.Core)}
	}
	// Uncached fill, a read of a Shared line, or a request by the recorded
	// owner itself (possible after an eviction writeback raced this
	// request): serve from L2/DRAM.
	switch {
	case req.Excl:
		e.newState, e.newOwner = dirM, req.Core
	case req.dir.MESI && e.state == dirI:
		// Sole reader: grant Exclusive (MESI E). The requester may
		// silently upgrade to Modified on its first write.
		e.newState, e.newOwner = dirM, req.Core
		return Decision{ExclClean: true}
	default:
		e.newState, e.newOwner, e.newSharers = dirS, 0, e.sharers|bit(req.Core)
	}
	return Decision{}
}

func (e *msiLine) Commit() (uint64, sim.Time) {
	e.state, e.owner, e.sharers = e.newState, e.newOwner, e.newSharers
	if e.state == dirM {
		e.sharers = bit(e.owner)
	}
	return 0, 0
}

// Lapsed: MSI grants no bounded reservations, so no lapse notices.
func (e *msiLine) Lapsed(int) bool { return false }

// Evict: a writeback leaves the line uncached unless ownership has moved on
// meanwhile, in which case the notice is stale and dropped; a Shared
// eviction clears the core's sharer bit.
func (e *msiLine) Evict(core int, dirty bool) {
	switch {
	case !dirty:
		e.sharers &^= bit(core)
	case e.state == dirM && e.owner == core:
		e.state = dirI
		e.sharers = 0
	}
}

func (e *msiLine) View() LineView {
	return LineView{State: e.state.String(), Owner: e.owner, Sharers: e.sharers}
}

// Verify: a Modified line has no second writer and no stale sharer, a Shared
// line has no writer and only recorded sharers, an Invalid line is cached
// nowhere.
func (e *msiLine) Verify(line mem.Line, ncores int, l1 func(core int) cache.State) error {
	l := uint64(line)
	for c := 0; c < ncores; c++ {
		st := l1(c)
		switch e.state {
		case dirM:
			if st == cache.Modified && c != e.owner {
				return fmt.Errorf("line %#x: dir owner %d but core %d holds M", l, e.owner, c)
			}
			if st == cache.Shared {
				return fmt.Errorf("line %#x: dir M but core %d holds S", l, c)
			}
		case dirS:
			if st == cache.Modified {
				return fmt.Errorf("line %#x: dir S but core %d holds M", l, c)
			}
			if st == cache.Shared && e.sharers&bit(c) == 0 {
				return fmt.Errorf("line %#x: core %d holds S but is not a recorded sharer", l, c)
			}
		case dirI:
			if st != cache.Invalid {
				return fmt.Errorf("line %#x: dir I but core %d holds %v", l, c, st)
			}
		}
	}
	return nil
}
