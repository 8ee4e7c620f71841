package stats

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestBucketBoundsMonotone(t *testing.T) {
	bounds := sortedBucketBounds(512)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bucket %d bound %d <= previous %d", i, bounds[i], bounds[i-1])
		}
	}
}

// TestBucketRoundTrip: every value falls in the bucket whose bounds contain
// it, with bounded relative error.
func TestBucketRoundTrip(t *testing.T) {
	err := quick.Check(func(v uint32) bool {
		val := uint64(v) % 10_000_000
		b := bucketOf(val)
		lo := bucketLo(b)
		hi := bucketLo(b + 1)
		if !(lo <= val && val < hi) {
			return false
		}
		// Relative bucket width bounded (exact below the linear region).
		if val >= histLinear && float64(hi-lo)/float64(lo) > 0.04 {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 5000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for v := uint64(0); v < 64; v++ {
		h.Add(v)
	}
	if h.Count() != 64 || h.Max() != 63 {
		t.Fatalf("count=%d max=%d", h.Count(), h.Max())
	}
	if got := h.Percentile(50); got != 31 {
		t.Errorf("p50 = %d, want 31", got)
	}
	if got := h.Percentile(100); got != 63 {
		t.Errorf("p100 = %d, want 63", got)
	}
	if h.Mean() != 31.5 {
		t.Errorf("mean = %v, want 31.5", h.Mean())
	}
}

// TestPercentileAgainstSort: histogram percentiles track exact order
// statistics within bucket resolution.
func TestPercentileAgainstSort(t *testing.T) {
	var h Histogram
	vals := make([]uint64, 0, 2000)
	x := uint64(12345)
	for i := 0; i < 2000; i++ {
		x = x*2862933555777941757 + 3037000493
		v := x % 5000
		vals = append(vals, v)
		h.Add(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, p := range []float64{50, 90, 95, 99} {
		exact := vals[int(p/100*float64(len(vals)))-1]
		got := h.Percentile(p)
		rel := float64(got) / float64(exact)
		if rel < 0.93 || rel > 1.05 {
			t.Errorf("p%.0f = %d vs exact %d (ratio %.3f)", p, got, exact, rel)
		}
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Add(5)
	h.Add(50000)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Percentile(99) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Percentile(50) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zero")
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	h.Add(10)
	s := h.String()
	if !strings.Contains(s, "n=1") || !strings.Contains(s, "max=10") {
		t.Errorf("String = %q", s)
	}
}
