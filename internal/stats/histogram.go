package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a fixed-memory latency histogram with exponentially growing
// bucket widths, good for tail percentiles of cycle counts spanning several
// orders of magnitude (zero-load ~20 cycles to saturation ~10^4).
//
// Bucket b covers [bucketLo(b), bucketLo(b+1)): widths are 1 up to 64, then
// double every 32 buckets, bounding relative error to ~3 %.
type Histogram struct {
	counts []uint64
	total  uint64
	sum    uint64
	max    uint64
}

const (
	histLinear  = 64 // one-cycle buckets below this
	histPerStep = 32 // buckets per doubling above it
)

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < histLinear {
		return int(v)
	}
	// Above the linear region, each doubling of v adds histPerStep buckets.
	step := uint64(histLinear)
	width := uint64(2)
	idx := histLinear
	for {
		if v < step*2 {
			return idx + int((v-step)/width)
		}
		idx += histPerStep
		step *= 2
		width *= 2
	}
}

// bucketLo returns the lower bound of bucket idx.
func bucketLo(idx int) uint64 {
	if idx < histLinear {
		return uint64(idx)
	}
	step := uint64(histLinear)
	width := uint64(2)
	base := histLinear
	for {
		if idx < base+histPerStep {
			return step + uint64(idx-base)*width
		}
		base += histPerStep
		step *= 2
		width *= 2
	}
}

// Add records one sample.
func (h *Histogram) Add(v uint64) {
	b := bucketOf(v)
	if b >= len(h.counts) {
		grown := make([]uint64, b+histPerStep)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[b]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the exact sample mean.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Max returns the exact maximum sample.
func (h *Histogram) Max() uint64 { return h.max }

// Percentile returns an estimate of the p-th percentile (p in [0,100]):
// the lower bound of the bucket containing that rank.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketLo(b)
		}
	}
	return h.max
}

// Quantiles returns the standard reporting set (p50, p95, p99).
func (h *Histogram) Quantiles() (p50, p95, p99 uint64) {
	return h.Percentile(50), h.Percentile(95), h.Percentile(99)
}

// Reset clears the histogram.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum, h.max = 0, 0, 0
}

// String renders a compact summary.
func (h *Histogram) String() string {
	p50, p95, p99 := h.Quantiles()
	return fmt.Sprintf("n=%d mean=%.2f p50=%d p95=%d p99=%d max=%d",
		h.total, h.Mean(), p50, p95, p99, h.max)
}

// sortedBucketBounds is exposed for tests validating monotonicity.
func sortedBucketBounds(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = bucketLo(i)
	}
	if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] }) {
		panic("stats: bucket bounds not monotone")
	}
	return out
}
