package service

import (
	"time"

	"pseudocircuit/internal/telemetry"
)

// instruments is the manager's always-on telemetry: counters and histograms
// for every job-lifecycle edge, gauges for the live state, and a span log
// putting the same edges on a wall-clock timeline. Everything here observes
// scheduling only — recording a metric can never change which cycles a
// simulation executes, so results stay bit-identical with telemetry on (the
// service extension of TestObservabilityNoBehaviorChange covers it).
//
// Metric names follow the conventions DESIGN.md §15 documents: the nocd_
// prefix, _total for counters, _seconds for histograms, and exactly one
// low-cardinality label per vector (scheme and outcome come from closed
// sets; job IDs and spec hashes never become labels).
type instruments struct {
	reg   *telemetry.Registry
	spans *telemetry.SpanLog

	submissions *telemetry.Counter
	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter
	coalesced   *telemetry.Counter
	rejected    *telemetry.Counter
	outcomes    telemetry.CounterVec // label outcome: done|failed|canceled
	cycles      *telemetry.Counter

	// Disk-store tier; registered (and non-nil) only when Config.Store is
	// set — every use is behind the same nil check.
	storeHits    *telemetry.Counter
	storeMisses  *telemetry.Counter
	storePutErrs *telemetry.Counter

	queueWait *telemetry.Histogram
	walk      [numTiers]*telemetry.Histogram // by the tier that answered
	buildTime *telemetry.Histogram           // inside runTime: constructing the network
	runTime   telemetry.HistogramVec         // label scheme

	queued  *telemetry.Gauge // jobs waiting for a worker
	running *telemetry.Gauge // jobs inside simulate
}

// The tiers of a walk (Manager.walk), in the order it asks them.
const (
	tierMemory = iota
	tierInflight
	tierStore
	tierFleet
	tierSimulate
	numTiers
)

var tierNames = [numTiers]string{"memory", "inflight", "store", "fleet", "simulate"}

// walkBuckets are DurationBuckets with three below them: a memory hit takes
// microseconds.
var walkBuckets = append([]float64{0.00001, 0.000025, 0.00005}, telemetry.DurationBuckets...)

// newInstruments registers the service metric schema on a fresh registry and
// wires the pull-style gauges to the manager's own state.
func newInstruments(m *Manager, spanCap int) *instruments {
	reg := telemetry.NewRegistry()
	ins := &instruments{
		reg:   reg,
		spans: telemetry.NewSpanLog(spanCap),

		submissions: reg.Counter("nocd_submissions_total",
			"accepted job submissions, including cache and singleflight hits"),
		cacheHits: reg.Counter("nocd_cache_hits_total",
			"submissions answered from the result cache without simulating"),
		cacheMisses: reg.Counter("nocd_cache_misses_total",
			"submissions that enqueued a new simulation"),
		coalesced: reg.Counter("nocd_singleflight_coalesced_total",
			"submissions that joined an identical in-flight job"),
		rejected: reg.Counter("nocd_rejected_total",
			"submissions rejected by queue-full backpressure"),
		outcomes: reg.CounterVec("nocd_jobs_total",
			"jobs reaching a terminal state, by outcome", "outcome"),
		cycles: reg.Counter("nocd_cycles_simulated_total",
			"simulated cycles completed across all jobs"),

		queueWait: reg.Histogram("nocd_queue_wait_seconds",
			"wall time between a job entering the queue and a worker dequeuing it", nil),
		buildTime: reg.Histogram("nocd_build_seconds",
			"wall time a worker spent constructing one job's network, before its first cycle", nil),
		runTime: reg.HistogramVec("nocd_run_seconds",
			"wall time a worker spent simulating one job", "scheme", nil),
	}
	walks := reg.HistogramVec("nocd_walk_seconds",
		"wall time of one result walk, from the request to the tier that answered it (a waiting walk includes the wait)",
		"tier", walkBuckets)
	for t, name := range tierNames {
		ins.walk[t] = walks.With(name)
	}
	states := reg.GaugeVec("nocd_jobs",
		"jobs currently in a non-terminal state, by state", "state")
	ins.queued = states.With("queued")
	ins.running = states.With("running")

	reg.GaugeFunc("nocd_queue_capacity", "configured queue bound",
		func() float64 { return float64(m.cfg.QueueCap) })
	reg.GaugeFunc("nocd_cache_entries", "results held in the in-memory cache",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(len(m.cacheOrder))
		})
	reg.GaugeFunc("nocd_inflight_keys", "distinct canonical specs queued or running",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(len(m.inflight))
		})
	reg.GaugeFunc("nocd_jobs_retained", "job records retained for status queries",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(len(m.jobs))
		})
	reg.GaugeFunc("nocd_ready", "1 while accepting submissions, 0 while draining or saturated",
		func() float64 {
			if m.Ready() == nil {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("nocd_span_log_dropped", "lifecycle spans evicted by the ring bound",
		func() float64 { return float64(ins.spans.Dropped()) })
	if st := m.cfg.Store; st != nil {
		ins.storeHits = reg.Counter("nocd_store_hits_total",
			"submissions answered from the persistent disk store without simulating")
		ins.storeMisses = reg.Counter("nocd_store_misses_total",
			"disk store lookups that found no intact entry")
		ins.storePutErrs = reg.Counter("nocd_store_put_errors_total",
			"failed disk store writes (the result is still served from memory)")
		reg.CounterFunc("nocd_store_evictions_total", "store entries evicted by the byte cap",
			st.Evictions)
		reg.CounterFunc("nocd_store_corrupt_total",
			"corrupt or torn store entries detected and evicted, never served",
			st.Corrupt)
		reg.GaugeFunc("nocd_store_entries", "intact entries resident in the disk store",
			func() float64 { return float64(st.Len()) })
		reg.GaugeFunc("nocd_store_bytes", "bytes resident in the disk store",
			func() float64 { return float64(st.Bytes()) })
	}
	return ins
}

// instant records a zero-length span at time now.
func (ins *instruments) instant(name string, j *Record, outcome string, now time.Time) {
	ins.span(name, j, outcome, now, now)
}

// span records a closed interval span.
func (ins *instruments) span(name string, j *Record, outcome string, start, end time.Time) {
	ins.spans.Record(telemetry.Span{
		Name: name, Job: j.id(), Key: j.ans.key, Scheme: schemeLabel(j.ans.req), Outcome: outcome,
		Start: start, End: end,
	})
}

// walked observes one walk that started at start, under the tier that
// answered it.
func (ins *instruments) walked(tier int, start time.Time) {
	ins.walk[tier].Observe(time.Since(start).Seconds())
}

// Telemetry returns the manager's metric registry, ready for Prometheus
// exposition.
func (m *Manager) Telemetry() *telemetry.Registry { return m.ins.reg }

// SpanLog returns the manager's job-lifecycle span log.
func (m *Manager) SpanLog() *telemetry.SpanLog { return m.ins.spans }

// Ready reports whether the manager would accept a submission right now:
// nil when ready, ErrShuttingDown while draining, ErrQueueFull while the
// queue is saturated. Load balancers poll this through /readyz to stop
// routing before a drain or an overload drops requests.
func (m *Manager) Ready() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrShuttingDown
	}
	if len(m.queue) == cap(m.queue) {
		return ErrQueueFull
	}
	return nil
}

// schemeLabel maps a canonical request to its bounded scheme label value:
// one of the five paper schemes, or "evc" for the comparison baseline.
func schemeLabel(r Request) string {
	if r.UseEVC {
		return "evc"
	}
	return r.Scheme
}
