// Package telemetry is the service-layer metrics core: named counters,
// gauges and fixed-bucket histograms behind a Prometheus text-format
// exposition writer (prometheus.go) and a wall-clock span log with JSONL /
// Chrome trace exporters (span.go) on internal/obs's ring and line codec.
//
// It mirrors the discipline the kernel's stats/obs layers established one
// level down: allocation-free on the hot path (Counter.Add, Gauge.Set,
// Histogram.Observe and resolved vector children perform no allocations and
// take no locks — everything is atomics over preallocated storage), and
// observation-only (recording never feeds back into the work being
// measured).
//
// Cardinality is a design constraint, not an afterthought: vectors carry
// exactly one label, children are created on first use and never deleted,
// and label values must come from small closed sets (scheme names, job
// states) — never from request data like job IDs or spec hashes.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down. Stored as float bits so Set is
// a single atomic store.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta (CAS loop; lock-free).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: counts[i] holds the observations
// that fell between bounds[i-1] (exclusive) and bounds[i] (inclusive); the
// last slot is the +Inf overflow. Exposition accumulates the counts into
// Prometheus's cumulative le-buckets. All storage is preallocated at
// registration, so Observe never allocates.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds, +Inf implicit
	counts  []atomic.Uint64
	total   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the sample sum, CAS-added
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not increasing at %d (%g <= %g)",
				i, bounds[i], bounds[i-1]))
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Binary search beats linear walk only past ~16 buckets; duration bucket
	// sets are around that size, and sort.SearchFloat64s does not allocate.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DurationBuckets is the default bucket set for service latencies, in
// seconds: 100µs to ~2 minutes, roughly trebling. Queue waits at an idle
// daemon land in the first buckets; saturated-queue waits and long
// simulations in the last.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// kind discriminates registered metric families.
type kind uint8

const (
	kindCounter kind = iota
	kindCounterFunc
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	}
	return "histogram"
}

// child is one labeled series within a family (or the single unlabeled
// series of a plain metric).
type child struct {
	labelValue string // empty for unlabeled metrics
	c          *Counter
	g          *Gauge
	fn         func() float64
	cfn        func() uint64
	h          *Histogram
}

// family is one named metric with its help text and children.
type family struct {
	name   string
	help   string
	kind   kind
	label  string // label name for vectors, empty otherwise
	bounds []float64

	mu       sync.Mutex
	children []*child
	byValue  map[string]*child
}

func (f *family) childFor(value string) *child {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.byValue[value]; ok {
		return ch
	}
	ch := &child{labelValue: value}
	switch f.kind {
	case kindCounter:
		ch.c = &Counter{}
	case kindGauge:
		ch.g = &Gauge{}
	case kindHistogram:
		ch.h = newHistogram(f.bounds)
	}
	f.byValue[value] = ch
	f.children = append(f.children, ch)
	return ch
}

// snapshotChildren copies the child list under the family lock so exposition
// iterates a stable slice while new children appear.
func (f *family) snapshotChildren() []*child {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*child(nil), f.children...)
}

// Registry holds metric families in registration order. Registration takes a
// lock and may allocate; it happens at startup. The returned instruments are
// lock-free thereafter.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// register creates (or re-resolves) a family; re-registering with a
// different kind or label panics — metric names are a schema, not a
// namespace to be squatted twice.
func (r *Registry) register(name, help string, k kind, label string, bounds []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	if label != "" && !validName(label) {
		panic(fmt.Sprintf("telemetry: invalid label name %q", label))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != k || f.label != label {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s/%q, was %s/%q",
				name, k, label, f.kind, f.label))
		}
		return f
	}
	f := &family{name: name, help: help, kind: k, label: label, bounds: bounds,
		byValue: map[string]*child{}}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// Counter registers (or returns the existing) plain counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, "", nil).childFor("").c
}

// Gauge registers (or returns the existing) plain gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, "", nil).childFor("").g
}

// GaugeFunc registers a gauge whose value is pulled from fn at exposition
// time — for values another subsystem already maintains (queue length, cache
// size). fn must be safe to call concurrently.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGaugeFunc, "", nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.byValue[""]; ok {
		panic(fmt.Sprintf("telemetry: gauge func %q registered twice", name))
	}
	ch := &child{fn: fn}
	f.byValue[""] = ch
	f.children = append(f.children, ch)
}

// CounterFunc registers a counter whose value is pulled from fn at
// exposition time — for monotonic counts another subsystem already
// maintains (the disk store's eviction tally). fn must be safe to call
// concurrently and must never decrease.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	f := r.register(name, help, kindCounterFunc, "", nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.byValue[""]; ok {
		panic(fmt.Sprintf("telemetry: counter func %q registered twice", name))
	}
	ch := &child{cfn: fn}
	f.byValue[""] = ch
	f.children = append(f.children, ch)
}

// Histogram registers (or returns the existing) plain histogram. Nil bounds
// select DurationBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DurationBuckets
	}
	return r.register(name, help, kindHistogram, "", bounds).childFor("").h
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ f *family }

// CounterVec registers (or returns the existing) labeled counter family.
func (r *Registry) CounterVec(name, help, label string) CounterVec {
	if label == "" {
		panic("telemetry: CounterVec needs a label name")
	}
	return CounterVec{r.register(name, help, kindCounter, label, nil)}
}

// With resolves the child for one label value, creating it on first use.
// Resolve once and keep the *Counter when the call site is hot.
func (v CounterVec) With(value string) *Counter { return v.f.childFor(value).c }

// GaugeVec is a gauge family keyed by one label.
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns the existing) labeled gauge family.
func (r *Registry) GaugeVec(name, help, label string) GaugeVec {
	if label == "" {
		panic("telemetry: GaugeVec needs a label name")
	}
	return GaugeVec{r.register(name, help, kindGauge, label, nil)}
}

// With resolves the child for one label value, creating it on first use.
func (v GaugeVec) With(value string) *Gauge { return v.f.childFor(value).g }

// HistogramVec is a histogram family keyed by one label.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns the existing) labeled histogram family.
// Nil bounds select DurationBuckets.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) HistogramVec {
	if label == "" {
		panic("telemetry: HistogramVec needs a label name")
	}
	if bounds == nil {
		bounds = DurationBuckets
	}
	return HistogramVec{r.register(name, help, kindHistogram, label, bounds)}
}

// With resolves the child for one label value, creating it on first use.
func (v HistogramVec) With(value string) *Histogram { return v.f.childFor(value).h }

// validName checks the Prometheus metric/label name grammar
// [a-zA-Z_][a-zA-Z0-9_]* (colons are reserved for recording rules).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
