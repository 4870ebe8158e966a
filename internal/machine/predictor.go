package machine

// This file implements the §5 "Speculative Execution" suggestion: "a
// speculative mechanism which keeps track of leases which cause frequent
// involuntary releases, and ignores the corresponding lease. More
// precisely, such a mechanism could track the program counter of the
// lease [and] count the number of involuntary releases... If these numbers
// exceed a set threshold, the lease is ignored."
//
// Sites stand in for program counters: programs pass a stable site id to
// Ctx.LeaseAt. Plain Ctx.Lease uses site 0.

// The thresholds mirror the spirit of §5: ignore a site once most of its
// leases expire involuntarily.
const (
	// predMinSamples is how many leases a site must take before it can be
	// judged.
	predMinSamples = 16
	// predIgnorePermille blacklists a site once its involuntary-release rate
	// exceeds this many per thousand leases.
	predIgnorePermille = 500
	// predRetryEvery re-samples a blacklisted site once every N skipped
	// leases, so sites whose behaviour improves are rehabilitated.
	predRetryEvery = 64
)

type predictorSite struct {
	leases  uint64
	invol   uint64
	skipped uint64
}

// leasePredictor is per-core (like the hardware table it models); enabled is
// Config.Predictor.
type leasePredictor struct {
	enabled bool
	sites   map[uint64]*predictorSite
}

func newLeasePredictor(enabled bool) *leasePredictor {
	return &leasePredictor{enabled: enabled, sites: make(map[uint64]*predictorSite)}
}

func (p *leasePredictor) site(id uint64) *predictorSite {
	s, ok := p.sites[id]
	if !ok {
		s = &predictorSite{}
		p.sites[id] = s
	}
	return s
}

// shouldIgnore reports whether a lease at this site should be skipped.
func (p *leasePredictor) shouldIgnore(id uint64) bool {
	if !p.enabled {
		return false
	}
	s := p.site(id)
	if s.leases < predMinSamples {
		return false
	}
	if s.invol*1000 <= s.leases*predIgnorePermille {
		return false
	}
	s.skipped++
	if s.skipped%predRetryEvery == 0 {
		return false // probation: take one lease to re-sample
	}
	return true
}

// record notes a completed lease at the site; voluntary=false means the
// timer expired.
func (p *leasePredictor) record(id uint64, voluntary bool) {
	if !p.enabled {
		return
	}
	s := p.site(id)
	s.leases++
	if !voluntary {
		s.invol++
	}
	// Age the counters so the rate tracks recent behaviour.
	if s.leases >= 1<<12 {
		s.leases >>= 1
		s.invol >>= 1
	}
}
