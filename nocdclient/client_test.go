package nocdclient

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pseudocircuit/noc"
)

// fastRetry keeps test backoffs in the microsecond range.
var fastRetry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}

func testRequest() Request {
	return Request{
		Spec:     noc.Spec{Topology: "mesh4x4", Scheme: "pseudo"},
		Workload: noc.WorkloadSpec{Rate: 0.05},
	}
}

func serveJob(w http.ResponseWriter, state State) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(Job{ID: "j1", State: state})
}

// TestSubmitRetries503 exercises the saturated-daemon path: the first two
// submissions bounce with 503 and the third succeeds. The client must retry
// through the 503s and deliver the final job.
func TestSubmitRetries503(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
			return
		}
		serveJob(w, "done")
	}))
	defer srv.Close()

	j, err := New(srv.URL).WithRetry(fastRetry).Submit(context.Background(), testRequest())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.State != "done" {
		t.Fatalf("job state = %q, want done", j.State)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3", got)
	}
}

// TestSubmitRetriesTransportError drops the TCP connection mid-request for
// the first two attempts; the resulting transport errors must be retried.
func TestSubmitRetriesTransportError(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("response writer cannot hijack")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatalf("hijack: %v", err)
			}
			conn.Close() // abrupt close: the client sees EOF / connection reset
			return
		}
		serveJob(w, "queued")
	}))
	defer srv.Close()

	j, err := New(srv.URL).WithRetry(fastRetry).Submit(context.Background(), testRequest())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.State != "queued" {
		t.Fatalf("job state = %q, want queued", j.State)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3", got)
	}
}

// TestSubmitDoesNotRetry400 asserts a validation failure is terminal: the
// request is broken, so retrying it would just repeat the 400.
func TestSubmitDoesNotRetry400(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("submission content type %q", ct)
		}
		http.Error(w, `{"error":"bad request: unknown scheme"}`, http.StatusBadRequest)
	}))
	defer srv.Close()

	_, err := New(srv.URL).WithRetry(fastRetry).Submit(context.Background(), testRequest())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Message != "bad request: unknown scheme" {
		t.Fatalf("err = %v, want 400 APIError", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (no retry on 400)", got)
	}
}

// TestRetryExhaustion asserts a persistent outage surfaces the last error
// after exactly MaxAttempts tries.
func TestRetryExhaustion(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	_, err := New(srv.URL).WithRetry(fastRetry).Submit(context.Background(), testRequest())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503 APIError", err)
	}
	if got := calls.Load(); got != int32(fastRetry.MaxAttempts) {
		t.Fatalf("server saw %d requests, want %d", got, fastRetry.MaxAttempts)
	}
}

// TestRetryBoundedByContext asserts an expired context cuts the retry loop
// short: with a generous backoff and a tiny deadline, the client must give
// up early instead of sleeping through all attempts.
func TestRetryBoundedByContext(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	slow := RetryPolicy{MaxAttempts: 10, BaseDelay: time.Second, MaxDelay: time.Second}
	start := time.Now()
	_, err := New(srv.URL).WithRetry(slow).Submit(ctx, testRequest())
	if err == nil {
		t.Fatal("Submit succeeded against an always-503 server")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("retry loop ran %v, want prompt exit on context expiry", elapsed)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 before the deadline", got)
	}
	// A context already done is neither retried nor slept on.
	done, stop := context.WithCancel(context.Background())
	stop()
	c := New(srv.URL).WithRetry(slow)
	if _, err := c.Submit(done, testRequest()); !errors.Is(err, context.Canceled) || c.RetryStats() != (RetryStats{Attempts: 1}) {
		t.Fatalf("canceled Submit: %v, %+v", err, c.RetryStats())
	}
}

// TestWaitRetries503 asserts the long-poll loop rides through transient
// 503s: two flaky polls, then a running snapshot, then the terminal one.
func TestWaitRetries503(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1, 2:
			http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
		case 3:
			serveJob(w, "running")
		default:
			serveJob(w, "done")
		}
	}))
	defer srv.Close()

	j, err := New(srv.URL).WithRetry(fastRetry).Wait(context.Background(), "j1")
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if j.State != "done" {
		t.Fatalf("job state = %q, want done", j.State)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("server saw %d requests, want 4", got)
	}
}

// TestRetryDisabled asserts MaxAttempts 1 turns retrying off entirely.
func TestRetryDisabled(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	_, err := New(srv.URL).WithRetry(RetryPolicy{MaxAttempts: 1}).Submit(context.Background(), testRequest())
	if err == nil {
		t.Fatal("Submit succeeded against an always-503 server")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 with retries disabled", got)
	}
}

// TestRetryDelayBounds pins the jitter window: every sampled delay must lie
// in [½d, 1½d) of the capped exponential step.
func TestRetryDelayBounds(t *testing.T) {
	if p := (RetryPolicy{}).withDefaults(); p != (RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}) {
		t.Errorf("zero policy defaults to %+v", p)
	}
	if c := New("http://nocd").WithRetry(RetryPolicy{MaxAttempts: 7}); c.retry.MaxAttempts != 7 || c.retry.BaseDelay != 50*time.Millisecond {
		t.Errorf("WithRetry(7 attempts) set %+v", c.retry)
	}
	if p := (RetryPolicy{BaseDelay: 3 * time.Second, MaxDelay: time.Second}).withDefaults(); p.MaxDelay != p.BaseDelay {
		t.Errorf("a cap below the base delay: MaxDelay %v, want it raised to BaseDelay %v", p.MaxDelay, p.BaseDelay)
	}
	p := RetryPolicy{BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}.withDefaults()
	// Past 12 retries the shift overflows to a negative delay and past 63
	// to none: both take the cap.
	for _, retry := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 40, 64, 200} {
		d := p.BaseDelay << uint(retry)
		if d <= 0 || d > p.MaxDelay {
			d = p.MaxDelay
		}
		for i := 0; i < 50; i++ {
			got := p.delay(retry)
			if got < d/2 || got >= d/2+d {
				t.Fatalf("delay(%d) = %v outside [%v, %v)", retry, got, d/2, d/2+d)
			}
		}
	}
}

// TestRetryStats: the cumulative counters track attempts, retries and
// backoff across operations, and a clean run records zero retries.
func TestRetryStats(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
			return
		}
		serveJob(w, "done")
	}))
	defer srv.Close()

	c := New(srv.URL).WithRetry(fastRetry)
	if s := c.RetryStats(); s != (RetryStats{}) {
		t.Fatalf("fresh client stats = %+v, want zero", s)
	}
	if _, err := c.Submit(context.Background(), testRequest()); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	s := c.RetryStats()
	if s.Attempts != 3 || s.Retries != 2 {
		t.Fatalf("after 503,503,200: %+v, want 3 attempts / 2 retries", s)
	}
	if s.Backoff <= 0 {
		t.Fatalf("backoff = %v, want > 0 after 2 sleeps", s.Backoff)
	}

	// A clean second submission adds one attempt and no retries.
	if _, err := c.Submit(context.Background(), testRequest()); err != nil {
		t.Fatal(err)
	}
	s2 := c.RetryStats()
	if s2.Attempts != 4 || s2.Retries != 2 || s2.Backoff != s.Backoff {
		t.Fatalf("after clean submit: %+v (was %+v)", s2, s)
	}
}

// TestJobTimingFields: the client decodes the daemon's timing fields.
func TestJobTimingFields(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"j1","state":"running","queueWaitMs":1.5,"runMs":250.25,` +
			`"cyclesPerSec":120000,"etaSeconds":4.5}`))
	}))
	defer srv.Close()

	j, err := New(srv.URL).Job(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	if j.QueueWaitMS != 1.5 || j.RunMS != 250.25 || j.CyclesPerSec != 120000 || j.ETASeconds != 4.5 {
		t.Fatalf("timing fields: %+v", j)
	}
}

// roundTrip is an http.RoundTripper from a function.
type roundTrip func(*http.Request) (*http.Response, error)

func (f roundTrip) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestClientErrors: every way a call can fail before, during or after its
// HTTP exchange comes back as the call's error: a request that does not
// encode, a base URL that does not parse, a daemon that is gone, a body cut
// short, a failed health check, a wait whose context ends.
func TestClientErrors(t *testing.T) {
	ctx := context.Background()
	once := RetryPolicy{MaxAttempts: 1}
	nan := testRequest()
	nan.Workload.Rate = math.NaN()
	if _, err := New("http://localhost").Submit(ctx, nan); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Errorf("Submit of a NaN rate: %v", err)
	}
	bad := New("http://bad\x7f").WithRetry(once)
	if _, err := bad.Submit(ctx, testRequest()); err == nil {
		t.Error("Submit to an unparsable base URL: no error")
	}
	if _, err := bad.Cancel(ctx, "j1"); err == nil {
		t.Error("Cancel on an unparsable base URL: no error")
	}
	if err := bad.Health(ctx); err == nil {
		t.Error("Health on an unparsable base URL: no error")
	}
	if a := bad.RetryStats().Attempts; a != 0 {
		t.Errorf("%d attempts sent for requests that could not be built", a)
	}

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.WriteHeader(http.StatusServiceUnavailable)
		case "/jobs":
			serveJob(w, "queued") // a daemon that answers ?wait=1 early
		case "/jobs/j1":
			serveJob(w, "done")
		default: // a body shorter than it says it is
			w.Header().Set("Content-Length", "100")
			io.WriteString(w, `{"id":`)
		}
	}))
	c := New(srv.URL).WithRetry(once)
	var apiErr *APIError
	if err := c.Health(ctx); !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable ||
		err.Error() != "nocd: 503: health check failed" || c.RetryStats().Attempts != 1 {
		t.Errorf("Health of a 503 daemon: %v, %d attempts counted", err, c.RetryStats().Attempts)
	}
	if j, err := c.SubmitWait(ctx, testRequest()); err != nil || j.State != "done" {
		t.Errorf("SubmitWait past an early answer: %+v, %v", j, err)
	}
	if _, err := c.Result(ctx, "j1"); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("Result with a truncated body: %v, want the read's error", err)
	}
	srv.Close()
	if err := c.Health(ctx); err == nil {
		t.Error("Health of a stopped daemon: no error")
	}

	// The transport hands back a running job as the context ends: Wait
	// stops with the context's error and the snapshot it has.
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	running := New("http://nocd").WithHTTP(&http.Client{Transport: roundTrip(func(r *http.Request) (*http.Response, error) {
		cancel()
		return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(strings.NewReader(`{"id":"j1","state":"running"}`))}, nil
	})})
	if j, err := running.Wait(wctx, "j1"); !errors.Is(err, context.Canceled) || j.State != "running" {
		t.Errorf("Wait as its context ends: %+v, %v", j, err)
	}
}
