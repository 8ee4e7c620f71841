package stats

import "testing"

// Percentile edge cases: empty, single-sample, and all-equal histograms must
// degrade gracefully at the extreme ranks, including p=0 and p=100.
func TestPercentileEmpty(t *testing.T) {
	var h Histogram
	for _, p := range []float64{0, 50, 99.999, 100} {
		if got := h.Percentile(p); got != 0 {
			t.Errorf("empty p%v = %d, want 0", p, got)
		}
	}
}

func TestPercentileSingleSample(t *testing.T) {
	for _, v := range []uint64{0, 1, 63, 64, 100, 9999} {
		var h Histogram
		h.Add(v)
		lo := bucketLo(bucketOf(v))
		for _, p := range []float64{0, 1, 50, 99, 100} {
			if got := h.Percentile(p); got != lo {
				t.Errorf("single sample %d: p%v = %d, want bucket floor %d", v, p, got, lo)
			}
		}
		if h.Max() != v || h.Mean() != float64(v) {
			t.Errorf("single sample %d: max=%d mean=%v", v, h.Max(), h.Mean())
		}
		if got := h.Percentile(150); got != v { // a rank past the last sample
			t.Errorf("single sample %d: p150 = %d, want the maximum", v, got)
		}
	}
}

func TestPercentileAllEqual(t *testing.T) {
	for _, v := range []uint64{5, 63, 500} {
		var h Histogram
		for i := 0; i < 1000; i++ {
			h.Add(v)
		}
		lo := bucketLo(bucketOf(v))
		for _, p := range []float64{0, 50, 95, 99, 100} {
			if got := h.Percentile(p); got != lo {
				t.Errorf("all-equal %d: p%v = %d, want %d", v, p, got, lo)
			}
		}
	}
}

// p=0 must clamp the rank to the first sample, not index before it.
func TestPercentileZeroRankClamp(t *testing.T) {
	var h Histogram
	h.Add(3)
	h.Add(40)
	if got := h.Percentile(0); got != 3 {
		t.Errorf("p0 = %d, want 3 (first sample)", got)
	}
	if got := h.Percentile(100); got != 40 {
		t.Errorf("p100 = %d, want 40", got)
	}
}
