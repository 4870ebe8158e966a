package ds

import (
	"leaserelease/internal/machine"
)

// MichaelHashMap is Michael's lock-free hash table [26]: a fixed array of
// buckets, each an independent Harris-style lock-free sorted list. All
// operations are lock-free; with a lease time > 0 each bucket list uses the
// predecessor-lease placement.
type MichaelHashMap struct {
	buckets []*HarrisList
	mask    uint64
}

// NewMichaelHashMap allocates nBuckets (rounded up to a power of two)
// lock-free buckets.
func NewMichaelHashMap(x machine.API, nBuckets int, leaseTime uint64) *MichaelHashMap {
	n := 1
	for n < nBuckets {
		n <<= 1
	}
	h := &MichaelHashMap{mask: uint64(n - 1)}
	for i := 0; i < n; i++ {
		h.buckets = append(h.buckets, NewHarrisList(x, leaseTime))
	}
	return h
}

func (h *MichaelHashMap) bucket(key uint64) *HarrisList {
	return h.buckets[(key*0x9e3779b97f4a7c15)>>32&h.mask]
}

// Insert adds key, reporting whether it was absent.
func (h *MichaelHashMap) Insert(x machine.API, key uint64) bool {
	return h.bucket(key).Insert(x, key)
}

// Remove deletes key, reporting whether it was present.
func (h *MichaelHashMap) Remove(x machine.API, key uint64) bool {
	return h.bucket(key).Remove(x, key)
}

// Contains reports key membership.
func (h *MichaelHashMap) Contains(x machine.API, key uint64) bool {
	return h.bucket(key).Contains(x, key)
}

// Len counts all live entries (test oracle; quiescent use only).
func (h *MichaelHashMap) Len(x machine.API) int {
	n := 0
	for _, b := range h.buckets {
		n += b.Len(x)
	}
	return n
}

// CheckInvariants validates every bucket list (test oracle).
func (h *MichaelHashMap) CheckInvariants(x machine.API) error {
	for _, b := range h.buckets {
		if err := b.CheckInvariants(x); err != nil {
			return err
		}
	}
	return nil
}
