//go:build race

package machine

import (
	"fmt"
	"strings"
	"testing"
)

// Poison-mode tests, compiled only into -race builds (where poison mode is
// armed): pooled-request lifecycle bugs must fail loudly, not corrupt
// determinism silently.

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if r := fmt.Sprint(recover()); !strings.Contains(r, want) {
			t.Fatalf("expected panic containing %q, got %q", want, r)
		}
	}()
	f()
}

// TestPoisonReuseWhileInFlightPanics: acquiring a core's request slot
// while a transaction is still in flight is a Proposition-1 violation.
func TestPoisonReuseWhileInFlightPanics(t *testing.T) {
	m := New(testConfig(1))
	cs := m.cores[0]
	req := m.acquireReq(cs, 5, true, false)
	mustPanic(t, "reused while in flight", func() {
		m.acquireReq(cs, 6, false, false)
	})
	m.releaseReq(cs, req)
}

// TestPoisonDoubleReleasePanics: releasing a request that is not in
// flight indicates a completion delivered twice.
func TestPoisonDoubleReleasePanics(t *testing.T) {
	m := New(testConfig(1))
	cs := m.cores[0]
	req := m.acquireReq(cs, 5, true, false)
	m.releaseReq(cs, req)
	mustPanic(t, "double-released", func() {
		m.releaseReq(cs, req)
	})
}

// TestPoisonScribble: after release the request is scribbled with values
// every downstream consumer chokes on, so use-after-release trips fast —
// the directory's bit() panics on the negative core index.
func TestPoisonScribble(t *testing.T) {
	m := New(testConfig(1))
	cs := m.cores[0]
	req := m.acquireReq(cs, 5, true, false)
	m.releaseReq(cs, req)
	if req.Core != poisonCore || req.Line != poisonLine || req.Txn != 0 {
		t.Fatalf("released request not scribbled: %+v", req)
	}
	// A fresh acquire un-poisons the slot completely.
	req = m.acquireReq(cs, 7, false, false)
	if req.Core != 0 || req.Line != 7 {
		t.Fatalf("acquire after poison left stale fields: %+v", req)
	}
	m.releaseReq(cs, req)
}

// TestPoisonReleasedExpiryPanics: a lease-expiry record that fires after it
// went back to its core's pool panics instead of ending whatever lease the
// record names next.
func TestPoisonReleasedExpiryPanics(t *testing.T) {
	m := New(testConfig(1))
	fire := m.expiry(m.cores[0], 5, 1)
	fire() // the table has no lease of that generation: a stale timer
	mustPanic(t, "released lease expiry fired", fire)
}
