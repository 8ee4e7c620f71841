package telemetry

import (
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("jobs_total", "jobs"); again != c {
		t.Fatal("re-registration did not return the same counter")
	}

	g := r.Gauge("queue_depth", "depth")
	g.Set(3)
	g.Add(-1.5)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("jobs_by_state_total", "per-state jobs", "state")
	v.With("done").Add(2)
	v.With("failed").Inc()
	if v.With("done").Value() != 2 || v.With("failed").Value() != 1 {
		t.Fatalf("children: done=%d failed=%d", v.With("done").Value(), v.With("failed").Value())
	}
	// Same name+label re-resolves; same name with a different shape panics.
	_ = r.CounterVec("jobs_by_state_total", "per-state jobs", "state")
	assertPanics(t, func() { r.CounterVec("jobs_by_state_total", "x", "scheme") })
	assertPanics(t, func() { r.Gauge("jobs_by_state_total", "x") })
	assertPanics(t, func() { r.Counter("invalid name!", "x") })
	assertPanics(t, func() { r.Counter("", "x") })
	assertPanics(t, func() { r.CounterVec("by_scheme_total", "x", "bad label") })
	assertPanics(t, func() { r.CounterVec("c_total", "x", "") })
	assertPanics(t, func() { r.GaugeVec("g", "x", "") })
	assertPanics(t, func() { r.HistogramVec("h_seconds", "x", "", nil) })
	r.GaugeFunc("cache_entries", "x", func() float64 { return 0 })
	assertPanics(t, func() { r.GaugeFunc("cache_entries", "x", func() float64 { return 0 }) })
	r.CounterFunc("evictions_total", "x", func() uint64 { return 0 })
	assertPanics(t, func() { r.CounterFunc("evictions_total", "x", func() uint64 { return 0 }) })
}

func TestHistogramBasics(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 106 {
		t.Fatalf("sum = %v, want 106", h.Sum())
	}
	// Buckets: (<=1): 0.5, 1 -> 2; (<=2): 1.5 -> 1; (<=4): 3 -> 1; +Inf: 100.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	assertPanics(t, func() { r.Histogram("bad_bounds", "x", []float64{2, 1}) })
	assertPanics(t, func() { r.Histogram("no_bounds", "x", []float64{}) })
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", nil)
	v := r.HistogramVec("hv_seconds", "", "scheme", nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i) * 0.001)
				v.With([]string{"a", "b"}[w%2]).Observe(0.01)
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Fatalf("gauge = %v, want 8000", g.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	if n := v.With("a").Count() + v.With("b").Count(); n != 8000 {
		t.Fatalf("vec count = %d, want 8000", n)
	}
}

// The hot path — increments, observes and resolved vec children — must not
// allocate: the service records telemetry on every request and the
// steady-state discipline of the lower layers extends up here.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", nil)
	vec := r.CounterVec("v_total", "", "scheme")
	vec.With("pseudo+s+b").Inc() // create the child outside the measured loop
	hv := r.HistogramVec("hv_seconds", "", "scheme", nil)
	hv.With("pseudo+s+b").Observe(1)

	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(3)
		g.Set(4.5)
		g.Add(-1)
		h.Observe(0.25)
		vec.With("pseudo+s+b").Inc()
		hv.With("pseudo+s+b").Observe(0.125)
	}); n != 0 {
		t.Fatalf("hot path allocates %.1f/op, want 0", n)
	}
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}
