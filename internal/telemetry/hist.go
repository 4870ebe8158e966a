package telemetry

import "math/bits"

// histBuckets covers the full uint64 range: bucket b holds values v with
// bits.Len64(v) == b, i.e. bucket 0 is exactly {0} and bucket b >= 1 is
// [2^(b-1), 2^b).
const histBuckets = 65

// Hist is a fixed-size, allocation-free, log2-bucketed histogram of
// cycle-domain measurements. The zero value is an empty histogram ready
// for use; Observe is O(1) and never allocates, so it is safe on the
// simulator's hot path.
type Hist struct {
	counts   [histBuckets]uint64
	n        uint64
	sum      uint64
	min, max uint64
}

// Observe records one value.
func (h *Hist) Observe(v uint64) {
	h.counts[bits.Len64(v)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// Mean returns the exact arithmetic mean (0 if empty).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Add merges o into h.
func (h *Hist) Add(o *Hist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// bucketBounds returns the inclusive value range covered by bucket b.
func bucketBounds(b int) (lo, hi uint64) {
	if b == 0 {
		return 0, 0
	}
	lo = uint64(1) << uint(b-1)
	hi = lo<<1 - 1
	return lo, hi
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1), linearly
// interpolated inside the containing log bucket and clamped to the exact
// observed [min, max]. Deterministic for identical observation streams.
func (h *Hist) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := bucketBounds(b)
			frac := (target - cum) / float64(c)
			v := lo + uint64(frac*float64(hi-lo))
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum += float64(c)
	}
	return h.max
}

// HistBucket is one occupied log2 bucket in a Summary's full bucket
// array: Count observations fell in the inclusive value range [Lo, Hi].
type HistBucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// Summary is the percentile digest of a Hist, as reported in JSON run
// reports and bench results. Buckets carries the full (occupied-only)
// bucket array so reports can be re-analyzed offline without re-running.
type Summary struct {
	Count   uint64       `json:"count"`
	Mean    float64      `json:"mean"`
	P50     uint64       `json:"p50"`
	P90     uint64       `json:"p90"`
	P99     uint64       `json:"p99"`
	Min     uint64       `json:"min"`
	Max     uint64       `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Summary digests the histogram into count/mean/p50/p90/p99/min/max plus
// the occupied bucket array.
func (h *Hist) Summary() Summary {
	var buckets []HistBucket
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := bucketBounds(b)
		buckets = append(buckets, HistBucket{Lo: lo, Hi: hi, Count: c})
	}
	return Summary{
		Count:   h.n,
		Mean:    h.Mean(),
		P50:     h.Quantile(0.50),
		P90:     h.Quantile(0.90),
		P99:     h.Quantile(0.99),
		Min:     h.min,
		Max:     h.max,
		Buckets: buckets,
	}
}
