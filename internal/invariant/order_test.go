package invariant

import (
	"fmt"
	"testing"

	"leaserelease/internal/machine"
	"leaserelease/internal/mem"
)

// Probes found past their deadline in one check are reported in (core,
// line) order, whatever order the deferral map yields them in, so a run's
// violations and Error()'s first one are the same every time. Eight fresh
// checkers each see eight overdue probes: map order alone would have put
// them in this order on all eight with odds far below one in a million.
func TestOverdueDeferralsReportInCoreLineOrder(t *testing.T) {
	var want []string
	for core := 0; core < 4; core++ {
		for _, l := range []mem.Line{0x40, 0x80} {
			want = append(want, fmt.Sprintf(
				"probe on core %d line %#x still deferred 190 cycles after queueing (deadline was cycle 100)", core, uint64(l)))
		}
	}
	for round := 0; round < 8; round++ {
		c := Attach(machine.New(machine.DefaultConfig(4)))
		for core := 3; core >= 0; core-- {
			for _, l := range []mem.Line{0x80, 0x40} {
				c.deferred[defKey{core: core, line: l}] = deferral{queuedAt: 10, deadline: 100}
			}
		}
		c.checkDeferred(200)
		if len(c.violations) != len(want) {
			t.Fatalf("round %d: %d violations, want %d: %v", round, len(c.violations), len(want), c.violations)
		}
		for i, v := range c.violations {
			if v.Rule != "probe-deferral-bound" || v.Detail != want[i] {
				t.Fatalf("round %d: violation %d = %v\nwant probe-deferral-bound: %s", round, i, v, want[i])
			}
		}
		if len(c.deferred) != 0 {
			t.Errorf("round %d: %d overdue deferrals left to report again", round, len(c.deferred))
		}
	}
}
