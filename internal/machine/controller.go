package machine

// This file implements the adaptive lease-duration controller: a
// per-core, per-site closed loop over lease release outcomes. The paper
// fixes MAX_LEASE_TIME as an architectural upper bound; the controller
// adapts the duration actually *granted* below that bound. After an
// involuntary release (the expiry timer fired — including fault-injected
// lease cuts and expiries while the holder was preempted) the site's cap
// shrinks multiplicatively (exponential backoff); after a clean
// voluntary-class release it re-grows gradually toward MAX_LEASE_TIME.
// A preempted holder therefore pins contended lines for ever-shorter
// windows, bounding the time victims wait far below the fixed cap, while
// well-behaved sites keep their full duration.
//
// Like the §5 predictor it shadows, the controller is per-core (the
// hardware table it models is core-private) and purely sequential:
// every grant/record happens on the owning core's event stream, so
// adaptation is deterministic for a fixed seed.

// The controller shrinks fast (halving) and regrows slowly, the usual
// asymmetry of backoff loops.
const (
	// ctrlMinDuration floors the adapted cap — leases never shrink below
	// this, so a site under permanent preemption still makes progress.
	ctrlMinDuration = 250
	// ctrlShrinkNum/ctrlShrinkDen scale the cap after an involuntary release
	// (multiplicative backoff: halved each time).
	ctrlShrinkNum, ctrlShrinkDen = 1, 2
	// ctrlGrowNum/ctrlGrowDen scale the cap after a clean voluntary-class
	// release (regrows ~12% per release). Growth is capped at MAX_LEASE_TIME.
	ctrlGrowNum, ctrlGrowDen = 9, 8
)

type ctrlSite struct {
	cap uint64 // current duration cap; 0 until the site's first grant
}

// leaseController is per-core, like the predictor; enabled is
// Config.Controller (Ctx.Lease/LeaseAt only; MultiLease groups keep their
// requested duration).
type leaseController struct {
	enabled bool
	max     uint64 // MAX_LEASE_TIME: ceiling for regrowth
	sites   map[uint64]*ctrlSite
}

func newLeaseController(enabled bool, maxLease uint64) *leaseController {
	return &leaseController{enabled: enabled, max: maxLease, sites: make(map[uint64]*ctrlSite)}
}

func (lc *leaseController) site(id uint64) *ctrlSite {
	s, ok := lc.sites[id]
	if !ok {
		s = &ctrlSite{}
		lc.sites[id] = s
	}
	return s
}

// grant returns the duration to grant for a request of dur at site:
// min(dur, adapted cap). clamped reports whether the controller cut the
// request. The first request at a site initializes its cap.
func (lc *leaseController) grant(site, dur uint64) (granted uint64, clamped bool) {
	if !lc.enabled {
		return dur, false
	}
	s := lc.site(site)
	if s.cap == 0 {
		s.cap = dur
		return dur, false
	}
	if dur <= s.cap {
		return dur, false
	}
	return s.cap, true
}

// record notes a release outcome at the site; voluntary=false means the
// expiry timer fired. It reports whether the cap shrank or grew (for the
// machine's counters). Sites never granted through the controller are
// ignored.
func (lc *leaseController) record(site uint64, voluntary bool) (shrank, grew bool) {
	if !lc.enabled {
		return false, false
	}
	s := lc.site(site)
	if s.cap == 0 {
		return false, false
	}
	if voluntary {
		n := s.cap * ctrlGrowNum / ctrlGrowDen
		if n == s.cap {
			n++
		}
		if n > lc.max {
			n = lc.max
		}
		if n <= s.cap {
			return false, false
		}
		s.cap = n
		return false, true
	}
	n := s.cap * ctrlShrinkNum / ctrlShrinkDen
	if n < ctrlMinDuration {
		n = ctrlMinDuration
	}
	if n >= s.cap {
		return false, false
	}
	s.cap = n
	return true, false
}

// capOf returns the site's current cap (0 = not yet granted), for tests
// and diagnostics.
func (lc *leaseController) capOf(site uint64) uint64 {
	if s, ok := lc.sites[site]; ok {
		return s.cap
	}
	return 0
}
