// Package clock is the fixture of TestAuditResolvesObjects.
package clock

import "time"

// Clock counts whole cycles.
type Clock struct {
	Cycles uint64
	// Ticks is only incremented and Started only set in a literal: no code
	// reads either.
	Ticks   uint64
	Started time.Time
	// Name is only assigned too, but encoding/json reads it.
	Name string `json:"name"`
}

// Seconds is read by nothing: cmd/tick calls time.Duration's Seconds, a
// namesake.
func (c Clock) Seconds() float64 { return float64(c.Cycles) / 1e9 }

// Ticker advances a clock.
type Ticker interface{ Tick(*Clock) }

// Quartz is a Ticker; its Tick is called only through the interface.
type Quartz struct{}

// Tick adds one cycle.
func (Quartz) Tick(c *Clock) {
	c.Cycles++
	c.Ticks++
}

// Elapsed runs t n times on a fresh clock and returns the wall time the
// cycles stand for.
func Elapsed(t Ticker, n int) time.Duration {
	c := Clock{Started: time.Now()}
	c.Name = "elapsed"
	for i := 0; i < n; i++ {
		t.Tick(&c)
	}
	return time.Duration(c.Cycles)
}
