package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"pseudocircuit/internal/obs"
)

// Span is one closed interval of a job's lifecycle on the service's
// wall-clock timeline: the queue wait between enqueue and dequeue, the run
// itself, a cache lookup (duration ~0), a cancellation request or the
// daemon-wide drain. Spans are observations of scheduling, never of
// simulated time — simulation results are bit-identical with span recording
// on, because nothing reads the log back.
type Span struct {
	Name    string // "queue-wait", "build", "run", "cache-hit", "cache-miss", "coalesced", "cancel", "drain"
	Job     string // job ID, empty for daemon-scoped spans
	Key     string // canonical spec hash (may be truncated for display)
	Scheme  string // canonical scheme name, for per-scheme slicing
	Outcome string // terminal disposition: "done", "failed", "canceled", ...
	Start   time.Time
	End     time.Time
}

// Duration returns the span length (zero for instant spans).
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// SpanLog is a bounded, concurrency-safe ring of Spans. Unlike the
// simulation tracer (single-goroutine by contract) the service records spans
// from every worker, so the obs.Ring sits behind a mutex — spans close at job
// granularity (a handful per job), never per cycle, so the lock is cold.
// When the ring fills, the oldest spans are evicted and counted in Dropped.
type SpanLog struct {
	mu   sync.Mutex
	ring obs.Ring[Span]
	base time.Time // export timestamps are offsets from here; never written after NewSpanLog
}

// NewSpanLog returns a log retaining up to capacity spans, with export
// timestamps relative to now.
func NewSpanLog(capacity int) *SpanLog {
	return &SpanLog{ring: obs.NewRing[Span](capacity), base: time.Now()}
}

// Record appends one span, evicting the oldest when the ring is full.
func (l *SpanLog) Record(s Span) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring.Push(s)
}

// Len returns the number of retained spans.
func (l *SpanLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Len()
}

// Dropped returns how many spans were evicted by the ring bound.
func (l *SpanLog) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Dropped()
}

// Spans returns the retained spans in recording order (a copy; safe to
// keep). Reporting-path only: it allocates.
func (l *SpanLog) Spans() []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Values()
}

// spanJSON is the strict JSONL wire form of a Span. Timestamps are
// microseconds since the log's base so the stream lines up with the Chrome
// export's ts axis.
type spanJSON struct {
	Span    string `json:"span"`
	Job     string `json:"job"`
	Key     string `json:"key"`
	Scheme  string `json:"scheme"`
	Outcome string `json:"outcome"`
	StartUs int64  `json:"startUs"`
	DurUs   int64  `json:"durUs"`
}

// WriteJSONL writes the retained spans as one JSON object per line, in
// recording order.
func (l *SpanLog) WriteJSONL(w io.Writer) error {
	spans := l.Spans()
	lines := make([]spanJSON, len(spans))
	for i, s := range spans {
		lines[i] = spanJSON{
			Span: s.Name, Job: s.Job, Key: s.Key, Scheme: s.Scheme, Outcome: s.Outcome,
			StartUs: s.Start.Sub(l.base).Microseconds(),
			DurUs:   s.Duration().Microseconds(),
		}
	}
	return obs.WriteJSONL(w, lines)
}

// ValidateSpansJSONL checks a span JSONL stream: every line must strictly
// decode as a spanJSON with a non-empty span name and non-negative
// start/duration. Spans are recorded at close time by concurrent workers, so
// no ordering is required. It returns the number of spans validated.
func ValidateSpansJSONL(r io.Reader) (int, error) {
	return obs.ReadJSONL(r, "span", func(data []byte) error {
		var s spanJSON
		if err := obs.Strict(data, &s); err != nil {
			return err
		}
		if s.Span == "" {
			return fmt.Errorf("empty span name")
		}
		if s.StartUs < 0 || s.DurUs < 0 {
			return fmt.Errorf("negative time (start %d, dur %d)", s.StartUs, s.DurUs)
		}
		return nil
	})
}

// ServicePid is the trace_event process ID service spans render under —
// far above the router pids and the NI pid base of the flit-lifecycle
// export, so one merged timeline keeps its lanes distinct.
const ServicePid = 1 << 21

type spanArgs struct {
	Job     string `json:"job"`
	Key     string `json:"key"`
	Scheme  string `json:"scheme"`
	Outcome string `json:"outcome"`
}

// WriteChromeTrace writes the retained spans in the same Chrome trace_event
// form as the flit-lifecycle tracer (internal/obs): complete "X" slices
// under a "nocd service" process, one thread lane per job. Ts is
// microseconds since the log's base — the same axis as WriteJSONL.
func (l *SpanLog) WriteChromeTrace(w io.Writer) error {
	cw := obs.NewChromeWriter(w)
	cw.NameProcess(ServicePid, "nocd service")
	for _, s := range l.Spans() {
		name := s.Name
		if s.Outcome != "" {
			name += " " + s.Outcome
		}
		ph, dur := "X", s.Duration().Microseconds()
		scope := ""
		if dur <= 0 {
			// Instant spans (cache lookups, cancels) as thread-scoped marks.
			ph, dur, scope = "i", 0, "t"
		}
		cw.Event(obs.ChromeEvent{
			Name: name, Ph: ph,
			Ts: s.Start.Sub(l.base).Microseconds(), Dur: dur,
			Pid: ServicePid, Tid: spanLane(s.Job), S: scope,
			Args: spanArgs{Job: s.Job, Key: shortKey(s.Key), Scheme: s.Scheme, Outcome: s.Outcome},
		})
	}
	return cw.Close()
}

// spanLane maps a job ID ("j42") to its thread lane; daemon-scoped spans
// (drain) share lane 0.
func spanLane(job string) int64 {
	n, err := strconv.ParseInt(strings.TrimPrefix(job, "j"), 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// shortKey truncates a spec hash for display.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
