package service

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"pseudocircuit/internal/telemetry"
)

// counterValue pulls one sample line out of a Prometheus exposition.
func counterValue(t *testing.T, out, line string) bool {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if l == line {
			return true
		}
	}
	return false
}

// TestLifecycleMetrics walks one job through miss -> run -> done and a
// second identical submission through the cache, then asserts every
// counter, gauge and histogram the ISSUE names moved the way the
// lifecycle says it must.
func TestLifecycleMetrics(t *testing.T) {
	m := New(Config{Workers: 1})
	defer shutdown(t, m)

	j1, err := m.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, j1.ID); err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit {
		t.Fatal("second identical submission missed the cache")
	}

	var buf bytes.Buffer
	if err := m.Telemetry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if _, err := telemetry.ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		"nocd_submissions_total 2",
		"nocd_cache_hits_total 1",
		"nocd_cache_misses_total 1",
		"nocd_singleflight_coalesced_total 0",
		"nocd_rejected_total 0",
		`nocd_jobs_total{outcome="done"} 1`,
		`nocd_jobs{state="queued"} 0`,
		`nocd_jobs{state="running"} 0`,
		"nocd_queue_wait_seconds_count 1",
		"nocd_build_seconds_count 1",
		`nocd_run_seconds_count{scheme="pseudo+s+b"} 1`,
		"nocd_cache_entries 1",
		"nocd_ready 1",
		"nocd_span_log_dropped 0",
		"nocd_queue_capacity 64",
		"nocd_jobs_retained 2",
		"nocd_inflight_keys 0",
	} {
		if !counterValue(t, out, want) {
			t.Errorf("exposition missing line %q\n%s", want, out)
		}
	}
	// The one completed job simulated warmup+measure cycles exactly.
	if want := "nocd_cycles_simulated_total 500"; !counterValue(t, out, want) {
		t.Errorf("exposition missing line %q\n%s", want, out)
	}

	// The span log holds the full lifecycle: miss instant, queue wait,
	// run, and the cache-hit instant from the second submission.
	names := map[string]string{}
	for _, s := range m.SpanLog().Spans() {
		names[s.Name] = s.Outcome
	}
	for span, outcome := range map[string]string{
		"cache-lookup": "miss",
		"queue-wait":   "dequeued",
		"build":        "built",
		"run":          "done",
		"cache-hit":    "hit",
	} {
		// cache-lookup is recorded twice (miss then later spans overwrite
		// nothing; map keeps the last outcome seen which for cache-lookup
		// is "miss" — only one cache-lookup span exists here).
		if got, ok := names[span]; !ok || got != outcome {
			t.Errorf("span %q outcome = %q ok=%v, want %q", span, got, ok, outcome)
		}
	}

	// An EVC run is timed under its own scheme label.
	evc := smallReq()
	evc.Spec.Scheme, evc.Spec.UseEVC = "baseline", true
	j3, err := m.Submit(evc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(ctx, j3.ID); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	m.Telemetry().WritePrometheus(&buf)
	if want := `nocd_run_seconds_count{scheme="evc"} 1`; !counterValue(t, buf.String(), want) {
		t.Errorf("exposition missing line %q\n%s", want, buf.String())
	}
}

// TestCoalescedAndCanceledMetrics drives the singleflight and cancel paths.
func TestCoalescedAndCanceledMetrics(t *testing.T) {
	m := New(Config{Workers: 1})
	defer shutdown(t, m)

	j1, err := m.Submit(longReq(7))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(longReq(7))
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Dedup || j2.ID != j1.ID {
		t.Fatalf("second submission not coalesced: %+v", j2)
	}
	waitState(t, m, j1.ID, StateRunning)
	if _, err := m.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := m.Wait(ctx, j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", j.State)
	}

	var buf bytes.Buffer
	if err := m.Telemetry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"nocd_singleflight_coalesced_total 1",
		`nocd_jobs_total{outcome="canceled"} 1`,
	} {
		if !counterValue(t, out, want) {
			t.Errorf("exposition missing line %q\n%s", want, out)
		}
	}
	var cancelSeen bool
	for _, s := range m.SpanLog().Spans() {
		if s.Name == "cancel" && s.Job == j1.ID {
			cancelSeen = true
		}
	}
	if !cancelSeen {
		t.Error("cancel instant span missing")
	}
}

// TestReadyAndDrainSpan: Ready flips to ErrShuttingDown after Shutdown and
// the drain span records a clean outcome.
func TestReadyAndDrainSpan(t *testing.T) {
	m := New(Config{Workers: 1})
	if err := m.Ready(); err != nil {
		t.Fatalf("fresh manager not ready: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.Ready(); err != ErrShuttingDown {
		t.Fatalf("Ready after shutdown = %v, want ErrShuttingDown", err)
	}
	var drain *telemetry.Span
	for _, s := range m.SpanLog().Spans() {
		if s.Name == "drain" {
			c := s
			drain = &c
		}
	}
	if drain == nil || drain.Outcome != "clean" {
		t.Fatalf("drain span = %+v, want outcome clean", drain)
	}
}

// TestQueueFullNotReady: a saturated queue reports ErrQueueFull through
// Ready and counts the rejection.
func TestQueueFullNotReady(t *testing.T) {
	m := New(Config{Workers: 1, QueueCap: 1})
	defer shutdown(t, m)

	// Occupy the single worker, then fill the single queue slot. The first
	// job must have left the queue before the fill, or the worker frees the
	// slot again after the loop saw it full.
	first, err := m.Submit(longReq(11))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, StateRunning)
	var filled bool
	for i := uint64(0); i < 50 && !filled; i++ {
		if _, err := m.Submit(longReq(100 + i)); err == nil {
			m.mu.Lock()
			filled = len(m.queue) == cap(m.queue)
			m.mu.Unlock()
		} else if err == ErrQueueFull {
			filled = true
		}
	}
	if !filled {
		t.Fatal("could not saturate the queue")
	}
	if err := m.Ready(); err != ErrQueueFull {
		t.Fatalf("Ready with full queue = %v, want ErrQueueFull", err)
	}
	if _, err := m.Submit(longReq(999)); err != ErrQueueFull {
		t.Fatalf("Submit with full queue = %v, want ErrQueueFull", err)
	}
	var buf bytes.Buffer
	if err := m.Telemetry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "nocd_rejected_total 0") {
		t.Errorf("rejection not counted:\n%s", buf.String())
	}
	// Unblock the drain quickly: cancel everything in flight.
	for _, j := range m.Jobs() {
		m.Cancel(j.ID)
	}
}

// TestJobTimingSnapshot: terminal snapshots carry queue wait and run
// duration; cache hits carry neither.
func TestJobTimingSnapshot(t *testing.T) {
	m := New(Config{Workers: 1})
	defer shutdown(t, m)

	j1, err := m.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := m.Wait(ctx, j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.RunMS <= 0 {
		t.Fatalf("terminal RunMS = %v, want > 0", j.RunMS)
	}
	if j.QueueWaitMS < 0 {
		t.Fatalf("QueueWaitMS = %v, want >= 0", j.QueueWaitMS)
	}
	if j.CyclesPerSec <= 0 {
		t.Fatalf("CyclesPerSec = %v, want > 0", j.CyclesPerSec)
	}
	if j.ETASeconds != 0 {
		t.Fatalf("terminal ETASeconds = %v, want 0", j.ETASeconds)
	}

	hit, err := m.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("expected cache hit")
	}
	if hit.RunMS != 0 || hit.QueueWaitMS != 0 {
		t.Fatalf("cache hit carries timings: run=%v wait=%v", hit.RunMS, hit.QueueWaitMS)
	}

	// A running job's timings run up to now, with an ETA once it has a
	// rate (a 32x32 mesh's first chunk takes a while); a queued one has
	// none yet.
	long := smallReq()
	long.Spec.Topology, long.Spec.Measure = "mesh32x32", 8_000_000
	running, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Cancel(running.ID)
	j = waitState(t, m, running.ID, StateRunning)
	if _, err := json.Marshal(j); err != nil || j.CyclesPerSec == 0 && j.ETASeconds != 0 {
		t.Errorf("running job before its first chunk: ETA %v at %v cycles/s (%v)", j.ETASeconds, j.CyclesPerSec, err)
	}
	long.Spec.Seed = 2
	queued, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Cancel(queued.ID)
	for deadline := time.Now().Add(10 * time.Second); j.CyclesDone == 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		j, _ = m.Get(running.ID)
	}
	if j.State != StateRunning || j.RunMS <= 0 || j.ETASeconds <= 0 {
		t.Errorf("running job: %s, RunMS %v, ETA %v; want both > 0", j.State, j.RunMS, j.ETASeconds)
	}
	if j, _ := m.Get(queued.ID); j.State != StateQueued || j.RunMS != 0 || j.QueueWaitMS != 0 {
		t.Errorf("queued job: %s, RunMS %v, QueueWaitMS %v; want 0 and 0", j.State, j.RunMS, j.QueueWaitMS)
	}
}

// TestServiceTelemetryNoBehaviorChange extends the observability
// no-behavior-change contract to the service path: a result produced
// through the fully instrumented manager is bit-identical to the same
// spec run directly through noc.Experiment.
func TestServiceTelemetryNoBehaviorChange(t *testing.T) {
	req := smallReq()
	req.Spec.Seed = 42

	canon, _, exp, err := Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	w, err := canon.Workload.Workload(exp)
	if err != nil {
		t.Fatal(err)
	}
	direct := exp.RunOn(exp.Build(), w)

	m := New(Config{Workers: 2})
	defer shutdown(t, m)
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got, err := m.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result == nil {
		t.Fatalf("no result (state %s, err %q)", got.State, got.Error)
	}
	if *got.Result != direct {
		t.Fatalf("service result differs from direct run:\nservice: %+v\ndirect:  %+v", *got.Result, direct)
	}
	// The build was timed on the way, as a span nested inside the job's run
	// span (TestLifecycleMetrics checks the histogram took the observation).
	var build, run telemetry.Span
	for _, s := range m.SpanLog().Spans() {
		switch s.Name {
		case "build":
			build = s
		case "run":
			run = s
		}
	}
	if build.Job != j.ID || build.Start.Before(run.Start) || build.End.After(run.End) {
		t.Errorf("build span %+v not inside run span %+v of job %s", build, run, j.ID)
	}
}
