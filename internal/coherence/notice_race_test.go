//go:build race

package coherence_test

import (
	"strings"
	"testing"

	. "leaserelease/internal/coherence"
	"leaserelease/internal/sim"
)

// TestPoisonReleasedNoticePanics: in -race builds, where poison mode is
// armed, running a notice whose record is back in the pool — an eviction
// notice, a reservation's lapse, a commit or a stalled service — panics
// instead of acting on whatever the record says next.
func TestPoisonReleasedNoticePanics(t *testing.T) {
	onBothBackends(t, func(t *testing.T, _ *sim.Engine, _ *mockEnv, d *Directory) {
		for kind := range NoticeKinds {
			t.Run(kind, func(t *testing.T) {
				defer func() {
					if r, _ := recover().(string); !strings.Contains(r, "released notice run") {
						t.Fatalf("a released notice ran; recovered %q", r)
					}
				}()
				RunNoticeTwice(d, kind)
			})
		}
	})
}
