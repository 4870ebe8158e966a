//go:build !race

package machine

import "leaserelease/internal/coherence"

// Poison mode is compiled out of regular builds: pooling costs nothing.

func poisonAcquire(*coreState, *coherence.Request) {}

func poisonRelease(*coreState, *coherence.Request) {}

func poisonTakeExpiry(*expiry) {}

func poisonFreeExpiry(*expiry) {}
