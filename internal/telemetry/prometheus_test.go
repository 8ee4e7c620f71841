package telemetry

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func buildRegistry() *Registry {
	r := NewRegistry()
	r.Counter("nocd_cache_hits_total", "submissions answered from the result cache").Add(3)
	r.Gauge("nocd_queue_length", "jobs waiting for a worker").Set(2)
	r.GaugeFunc("nocd_cache_entries", "cached results", func() float64 { return 7 })
	h := r.Histogram("nocd_queue_wait_seconds", "enqueue to dequeue", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	v := r.HistogramVec("nocd_run_seconds", "simulation wall time", "scheme", []float64{1, 10})
	v.With("pseudo+s+b").Observe(0.5)
	v.With("baseline").Observe(20)
	return r
}

func TestWritePrometheusShape(t *testing.T) {
	var buf bytes.Buffer
	if err := buildRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE nocd_cache_hits_total counter",
		"nocd_cache_hits_total 3",
		"# TYPE nocd_queue_length gauge",
		"nocd_queue_length 2",
		"nocd_cache_entries 7",
		"# TYPE nocd_queue_wait_seconds histogram",
		`nocd_queue_wait_seconds_bucket{le="0.01"} 1`,
		`nocd_queue_wait_seconds_bucket{le="0.1"} 2`,
		`nocd_queue_wait_seconds_bucket{le="1"} 2`,
		`nocd_queue_wait_seconds_bucket{le="+Inf"} 3`,
		"nocd_queue_wait_seconds_count 3",
		`nocd_run_seconds_bucket{scheme="pseudo+s+b",le="1"} 1`,
		`nocd_run_seconds_bucket{scheme="baseline",le="+Inf"} 1`,
		`nocd_run_seconds_count{scheme="baseline"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestExpositionRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := buildRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	families, err := ValidateExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("own exposition rejected: %v\n%s", err, buf.String())
	}
	if families != 5 {
		t.Fatalf("validated %d families, want 5", families)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"no samples":         "# TYPE a counter\n",
		"untyped sample":     "a_total 3\n",
		"bad value":          "# TYPE a counter\na three\n",
		"bad name":           "# TYPE a counter\n9a 3\n",
		"unterminated label": "# TYPE a gauge\na{x=\"y 3\n",
		"dup TYPE":           "# TYPE a counter\n# TYPE a counter\na 1\n",
		"non-cumulative buckets": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"le not increasing": "# TYPE h histogram\n" +
			"h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"missing +Inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"count != +Inf bucket": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"unknown type":          "# TYPE a widget\na 1\n",
		"bucket without le":     "# TYPE h histogram\nh_bucket{x=\"1\"} 1\n",
		"bad le":                "# TYPE h histogram\nh_bucket{le=\"one\"} 1\n",
		"fractional bucket":     "# TYPE h histogram\nh_bucket{le=\"1\"} 1.5\n",
		"histogram sans suffix": "# TYPE h histogram\nh 1\n",
		"no value":              "# TYPE a gauge\na\n",
		"three fields":          "# TYPE a gauge\na 1 2 3\n",
		"label without =":       "# TYPE a gauge\na{x} 1\n",
		"bad label name":        "# TYPE a gauge\na{9x=\"1\"} 1\n",
		"unquoted label":        "# TYPE a gauge\na{x=1} 1\n",
		"unknown escape":        "# TYPE a gauge\na{x=\"\\q\"} 1\n",
		"dangling escape":       "# TYPE a gauge\na{x=\"\\} 1\n",
		"unterminated value":    "# TYPE a gauge\na{x=\"1} 1\n",
		"duplicate label":       "# TYPE a gauge\na{x=\"1\",x=\"2\"} 1\n",
		"line over 1 MiB":       "# TYPE a gauge\na " + strings.Repeat("1", 1<<20) + "\n",
	}
	for name, doc := range cases {
		if _, err := ValidateExposition(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted\n%s", name, doc)
		}
	}
	// A gauge literally named like a histogram suffix must not be
	// misattributed to a histogram family.
	ok := "# TYPE foo_count gauge\nfoo_count 3\n"
	if _, err := ValidateExposition(strings.NewReader(ok)); err != nil {
		t.Errorf("gauge named foo_count rejected: %v", err)
	}
	// Blank lines, escaped label values and the spelled-out float values
	// are all legal.
	ok = "# TYPE a gauge\n\na{x=\"\\\\ \\\" \\n\"} NaN\n"
	if _, err := ValidateExposition(strings.NewReader(ok)); err != nil {
		t.Errorf("escapes and NaN rejected: %v\n%s", err, ok)
	}
}

// TestNonFiniteGaugesRoundTrip: a gauge at ±Inf or NaN is written in the
// text format's spelling and read back by the validator.
func TestNonFiniteGaugesRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Gauge("up_inf", "").Set(math.Inf(1))
	r.Gauge("down_inf", "").Set(math.Inf(-1))
	r.Gauge("not_a_number", "").Set(math.NaN())
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"up_inf +Inf\n", "down_inf -Inf\n", "not_a_number NaN\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, buf.String())
		}
	}
	if n, err := ValidateExposition(&buf); err != nil || n != 3 {
		t.Errorf("validated %d families, %v; want 3", n, err)
	}
}
