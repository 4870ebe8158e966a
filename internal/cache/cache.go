// Package cache models a private set-associative write-back L1 cache with
// MSI line states and LRU replacement, matching the paper's Table 1
// configuration (32 KB, 4-way, 64-byte lines by default).
//
// The cache tracks coherence state and replacement only; architectural data
// lives in the shared mem.Store. Lines may be pinned while leased so that
// replacement never silently drops a leased line.
package cache

import (
	"fmt"

	"leaserelease/internal/mem"
	"leaserelease/internal/telemetry"
)

// State is an MSI cache line state.
type State uint8

const (
	// Invalid: the line is not present.
	Invalid State = iota
	// Shared: read permission; other caches may also hold the line.
	Shared
	// Modified: exclusive read/write permission ("M" covers the MSI
	// protocol's single exclusive/dirty state).
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Config sizes an L1 cache.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
}

// DefaultConfig is the paper's L1: 32 KB, 4-way, 64 B lines.
func DefaultConfig() Config { return Config{SizeBytes: 32 * 1024, Ways: 4} }

type way struct {
	line   mem.Line
	state  State
	pinned bool
	lru    uint64 // larger = more recently used
}

// Cache is one core's private L1.
type Cache struct {
	cfg     Config
	ways    []way // set i is ways[i*cfg.Ways : (i+1)*cfg.Ways]
	setMask uint64
	tick    uint64

	// last is the way find found last, which find checks before it walks a
	// set: an access that probes with Holds and then performs the hit with
	// Lookup walks the set once, and so does a run of accesses to one line.
	last *way

	// Stats
	Hits, Misses uint64

	// Bus, when set, receives a telemetry.CatCache event for every
	// replacement victim (kind = the victim's state, CoreID = this
	// cache's core). The machine wires both when telemetry is enabled.
	Bus    *telemetry.Bus
	CoreID int
}

// New builds an L1 from cfg. The number of sets must come out a power of
// two; New panics otherwise (configuration error).
func New(cfg Config) *Cache {
	nLines := cfg.SizeBytes / mem.LineSize
	if cfg.Ways <= 0 || nLines <= 0 || nLines%cfg.Ways != 0 {
		panic("cache: invalid geometry")
	}
	nSets := nLines / cfg.Ways
	if nSets&(nSets-1) != 0 {
		panic("cache: set count must be a power of two")
	}
	ways := make([]way, nLines)
	return &Cache{cfg: cfg, ways: ways, setMask: uint64(nSets - 1), last: &ways[0]}
}

func (c *Cache) set(l mem.Line) []way {
	i := int(uint64(l)&c.setMask) * c.cfg.Ways
	return c.ways[i : i+c.cfg.Ways]
}

func (c *Cache) find(l mem.Line) *way {
	if w := c.last; w.line == l && w.state != Invalid {
		return w
	}
	s := c.set(l)
	for i := range s {
		if s[i].state != Invalid && s[i].line == l {
			c.last = &s[i]
			return c.last
		}
	}
	return nil
}

// State returns the line's current state (Invalid if absent).
func (c *Cache) State(l mem.Line) State {
	if w := c.find(l); w != nil {
		return w.state
	}
	return Invalid
}

// Holds reports whether Lookup would hit, and changes nothing: no LRU
// refresh, no hit or miss counted. The machine probes with it before it
// decides at what time the access is performed; the Lookup that performs a
// hit then finds the way without walking the set again.
func (c *Cache) Holds(l mem.Line, write bool) bool {
	return c.find(l).permits(write)
}

func (w *way) permits(write bool) bool {
	return w != nil && (w.state == Modified || (!write && w.state == Shared))
}

// Lookup checks whether the cache can satisfy an access: Shared or Modified
// for reads, Modified for writes. On a hit it refreshes LRU and returns
// true.
func (c *Cache) Lookup(l mem.Line, write bool) bool {
	w := c.find(l)
	ok := w.permits(write)
	if ok {
		c.tick++
		w.lru = c.tick
		c.Hits++
	} else {
		c.Misses++
	}
	return ok
}

// HitN performs n read hits on l at once: the hit count and the LRU clock
// advance by n and l's way takes the last tick, as n Lookups that hit would
// leave them. l must be held with read permission; HitN panics otherwise.
func (c *Cache) HitN(l mem.Line, n uint64) {
	w := c.find(l)
	if !w.permits(false) {
		panic("cache: HitN on a line not held")
	}
	c.tick += n
	w.lru = c.tick
	c.Hits += n
}

// Victim reports the line that Install would evict to make room for l, or
// (0, false) if no eviction is needed (line already present, or a free way
// exists). Pinned ways are never chosen; if every way is pinned, Victim
// returns ok=false and full=true so the caller can force-release a lease.
func (c *Cache) Victim(l mem.Line) (victim mem.Line, evict bool, allPinned bool) {
	if c.find(l) != nil {
		return 0, false, false
	}
	s := c.set(l)
	var lru *way
	for i := range s {
		if s[i].state == Invalid {
			return 0, false, false
		}
		if s[i].pinned {
			continue
		}
		if lru == nil || s[i].lru < lru.lru {
			lru = &s[i]
		}
	}
	if lru == nil {
		return 0, false, true
	}
	return lru.line, true, false
}

// Install places line l in state st, evicting per Victim if needed. It
// returns the evicted line and its prior state; evicted is false when a free
// or matching way was used. Installing when all ways are pinned panics: the
// controller must unpin (force-release) first.
func (c *Cache) Install(l mem.Line, st State) (victim mem.Line, victimState State, evicted bool) {
	if st == Invalid {
		panic("cache: installing Invalid")
	}
	c.tick++
	if w := c.find(l); w != nil {
		w.state = st
		w.lru = c.tick
		return 0, Invalid, false
	}
	s := c.set(l)
	var slot *way
	for i := range s {
		if s[i].state == Invalid {
			slot = &s[i]
			break
		}
	}
	if slot == nil {
		var lru *way
		for i := range s {
			if s[i].pinned {
				continue
			}
			if lru == nil || s[i].lru < lru.lru {
				lru = &s[i]
			}
		}
		if lru == nil {
			panic("cache: all ways pinned; controller must force-release a lease")
		}
		victim, victimState, evicted = lru.line, lru.state, true
		c.Bus.Emit(telemetry.CatCache, c.CoreID, uint8(victimState), victim, 1)
		slot = lru
	}
	*slot = way{line: l, state: st, lru: c.tick}
	return victim, victimState, evicted
}

// Downgrade sets the line's state in response to a coherence probe:
// to Shared on a read probe, to Invalid on an ownership probe. Downgrading
// an absent line is a no-op (the probe raced a silent eviction).
func (c *Cache) Downgrade(l mem.Line, to State) {
	w := c.find(l)
	if w == nil {
		return
	}
	if to == Invalid {
		w.state = Invalid
		w.pinned = false
		return
	}
	if to == Shared && w.state == Modified {
		w.state = Shared
	}
}

// Pin marks the line unevictable (it holds an active lease). Pinning an
// absent line panics: leases pin only lines the core owns.
func (c *Cache) Pin(l mem.Line) {
	w := c.find(l)
	if w == nil {
		panic("cache: pinning absent line")
	}
	w.pinned = true
}

// Unpin clears the pin; absent lines are ignored (the lease may have been
// force-released during an eviction).
func (c *Cache) Unpin(l mem.Line) {
	if w := c.find(l); w != nil {
		w.pinned = false
	}
}

// Pinned reports whether the line is present and pinned.
func (c *Cache) Pinned(l mem.Line) bool {
	w := c.find(l)
	return w != nil && w.pinned
}
