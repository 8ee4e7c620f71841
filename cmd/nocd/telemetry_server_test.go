package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"pseudocircuit/internal/sweepapi"
	"pseudocircuit/internal/telemetry"
	"pseudocircuit/nocdclient"
)

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestMetricsEndpoint: a double submission shows up on /metrics as a
// cache hit, and the whole exposition parses under the strict validator.
func TestMetricsEndpoint(t *testing.T) {
	srv, _, c := startDaemon(t, "-workers", "2")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := c.SubmitWait(ctx, smallReq(3)); err != nil {
		t.Fatal(err)
	}
	j, err := c.Submit(ctx, smallReq(3))
	if err != nil {
		t.Fatal(err)
	}
	if !j.CacheHit {
		t.Fatal("resubmission missed the cache")
	}

	resp, body := get(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("content type %q, want %q", ct, telemetry.ContentType)
	}
	if _, err := telemetry.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		"nocd_cache_hits_total 1",
		"nocd_cache_misses_total 1",
		"nocd_queue_wait_seconds_count 1",
		`nocd_run_seconds_count{scheme="pseudo+s+b"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in /metrics\n%s", want, body)
		}
	}
}

// TestReadyzDraining: /readyz answers 200 while serving and 503 once the
// manager is draining; /healthz stays 200 throughout (liveness only).
func TestReadyzDraining(t *testing.T) {
	srv, d, _ := startDaemon(t, "-workers", "1")

	if resp, _ := get(t, srv.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("ready daemon /readyz = %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var stderr bytes.Buffer
	if d.shutdown(ctx, &stderr); stderr.Len() != 0 {
		t.Fatalf("idle daemon drained with: %s", stderr.String())
	}
	if resp, _ := get(t, srv.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining daemon /readyz = %d, want 503", resp.StatusCode)
	}
	if resp, body := get(t, srv.URL+"/healthz"); resp.StatusCode != http.StatusOK || body != "ok\n" {
		t.Fatalf("draining daemon /healthz = %d %q, want 200 ok (liveness)", resp.StatusCode, body)
	}
}

// TestSpansEndpoint: both export formats validate under their own
// checkers after a completed job.
func TestSpansEndpoint(t *testing.T) {
	srv, _, c := startDaemon(t, "-workers", "2")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.SubmitWait(ctx, smallReq(4)); err != nil {
		t.Fatal(err)
	}

	resp, body := get(t, srv.URL+"/spans")
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/x-ndjson" {
		t.Fatalf("/spans status %d, content type %q", resp.StatusCode, ct)
	}
	n, err := telemetry.ValidateSpansJSONL(strings.NewReader(body))
	if err != nil {
		t.Fatalf("span JSONL invalid: %v\n%s", err, body)
	}
	// cache-lookup, queue-wait, run at minimum.
	if n < 3 {
		t.Fatalf("only %d spans exported", n)
	}

	resp, body = get(t, srv.URL+"/spans?format=chrome")
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/json" {
		t.Fatalf("/spans?format=chrome status %d, content type %q", resp.StatusCode, ct)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("chrome trace not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace empty")
	}

	if resp, _ := get(t, srv.URL+"/spans?format=nope"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad format status %d, want 400", resp.StatusCode)
	}
}

// TestRequestLogMiddleware: with the middleware installed, each request
// emits one JSON line carrying method/path/status/duration, and job
// handlers annotate it with id, spec hash and outcome.
func TestRequestLogMiddleware(t *testing.T) {
	var logBuf bytes.Buffer
	d, err := newDaemon([]string{"-workers", "2", "-log-json"}, &logBuf)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(t, d)

	body := `{"topology":"mesh4x4","scheme":"pseudo+s+b","va":"static","warmup":100,"measure":400,` +
		`"workload":{"pattern":"uniform","rate":0.1}}`
	resp, err := http.Post(srv.URL+"/jobs?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	get(t, srv.URL+"/healthz")
	if resp, _ := get(t, srv.URL+"/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job through the request log: status %d", resp.StatusCode)
	}

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d log lines, want 3:\n%s", len(lines), logBuf.String())
	}
	var rec struct {
		Msg      string  `json:"msg"`
		Method   string  `json:"method"`
		Path     string  `json:"path"`
		Status   int     `json:"status"`
		Duration float64 `json:"duration"`
		Job      string  `json:"job"`
		Key      string  `json:"key"`
		Outcome  string  `json:"outcome"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, lines[0])
	}
	if rec.Msg != "request" || rec.Method != "POST" || rec.Path != "/jobs" ||
		rec.Status != http.StatusOK || rec.Duration <= 0 {
		t.Fatalf("submit log record: %+v", rec)
	}
	if rec.Job == "" || len(rec.Key) != 64 || rec.Outcome != "done" {
		t.Fatalf("submit log missing job identity: %+v", rec)
	}
	rec.Job, rec.Outcome = "", ""
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Path != "/healthz" || rec.Job != "" {
		t.Fatalf("healthz log record: %+v", rec)
	}
	if err := json.Unmarshal([]byte(lines[2]), &rec); err != nil || rec.Status != http.StatusNotFound {
		t.Fatalf("unknown job log record: %+v (%v)", rec, err)
	}
}

// TestRequestLogSeesCoalescingAndStreams: a submission that joins an
// identical job in flight is logged as coalesced, and a watch stream is
// flushed through the log's recorder and logged when it ends.
func TestRequestLogSeesCoalescingAndStreams(t *testing.T) {
	var logBuf bytes.Buffer
	d, err := newDaemon([]string{"-workers", "1", "-log-json"}, &logBuf)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(t, d)
	c := nocdclient.New(srv.URL)
	ctx := context.Background()
	long := smallReq(1)
	long.Spec.Measure = 8_000_000
	var j nocdclient.Job
	for range 2 {
		if j, err = c.Submit(ctx, long); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Cancel(ctx, j.ID); err != nil {
		t.Fatal(err)
	}
	if resp, body := get(t, srv.URL+"/jobs/"+j.ID+"?watch=1"); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"canceled"`) {
		t.Fatalf("watch of a canceled job: status %d:\n%s", resp.StatusCode, body)
	}
	// A ?wait=1 read is logged with the state its wait ended in.
	long.Spec.Seed = 2
	q, err := c.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error)
	go func() {
		resp, err := http.Get(srv.URL + "/jobs/" + q.ID + "?wait=1")
		if err == nil {
			resp.Body.Close()
		}
		waited <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := c.Cancel(ctx, q.ID); err != nil {
		t.Fatal(err)
	}
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	log := logBuf.String()
	for _, want := range []string{`"outcome":"coalesced"`, `"method":"GET","path":"/jobs/` + j.ID + `","status":200`} {
		if !strings.Contains(log, want) {
			t.Errorf("request log lacks %s:\n%s", want, log)
		}
	}
	for _, line := range strings.Split(log, "\n") {
		if strings.Contains(line, `"path":"/jobs/`+q.ID+`"`) && !strings.Contains(line, `"outcome":"canceled"`) {
			t.Errorf("the waited read is not logged canceled: %s", line)
		}
	}
}

// TestWatchCarriesRate: the ?watch NDJSON stream's terminal line reports
// the simulation rate and timings.
func TestWatchCarriesRate(t *testing.T) {
	srv, _, c := startDaemon(t, "-workers", "2")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := c.Submit(ctx, smallReq(5))
	if err != nil {
		t.Fatal(err)
	}
	resp, body := get(t, srv.URL+"/jobs/"+j.ID+"?watch=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status %d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	var last struct {
		State        string  `json:"state"`
		RunMS        float64 `json:"runMs"`
		CyclesPerSec float64 `json:"cyclesPerSec"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.State != "done" {
		t.Fatalf("terminal watch state %q", last.State)
	}
	if last.RunMS <= 0 || last.CyclesPerSec <= 0 {
		t.Fatalf("terminal watch line lacks rate: %+v", last)
	}
}

// sampleSum adds up every sample of the named family in an exposition, over
// all its label sets; found is false when it has none.
func sampleSum(body, name string) (sum float64, found bool) {
	for _, line := range strings.Split(body, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if n, _, _ := strings.Cut(f[0], "{"); n == name {
			v, err := strconv.ParseFloat(f[1], 64)
			sum, found = sum+v, found || err == nil
		}
	}
	return sum, found
}

// TestSweepMetricsAndLog: with the JSON request log on, a resubmitted job and
// a 4-point sweep leave their traces on every observability surface: the
// sweep counters and the network-build histogram on /metrics (one cold job
// plus four cold points is five builds), a sweep span on /spans, and a
// cache-hit outcome in the request log.
func TestSweepMetricsAndLog(t *testing.T) {
	var logBuf bytes.Buffer
	d, err := newDaemon([]string{"-workers", "2", "-log-json"}, &logBuf)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(t, d)

	post := func(path, body string) string {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d, %v: %s", path, resp.StatusCode, err, b)
		}
		return string(b)
	}
	spec := `{"topology":"mesh4x4","scheme":"pseudo+s+b","va":"static","warmup":100,"measure":400,` +
		`"workload":{"pattern":"uniform","rate":0.1}}`
	post("/jobs?wait=1", spec)
	post("/jobs?wait=1", spec)
	var sweep sweepapi.Status
	if err := json.Unmarshal([]byte(post("/sweeps?wait=1", `{"template":{"topology":"mesh4x4","scheme":"baseline",`+
		`"va":"static","warmup":100,"measure":400,"workload":{"pattern":"uniform","rate":0.1}},`+
		`"axes":{"scheme":["baseline","pseudo"],"seed":[1,2]}}`)), &sweep); err != nil {
		t.Fatal(err)
	}
	if sweep.State != "done" || sweep.Done != 4 {
		t.Fatalf("sweep: %+v", sweep)
	}

	_, body := get(t, srv.URL+"/metrics")
	if _, err := telemetry.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, c := range []struct {
		name string
		min  float64
	}{{"nocd_sweeps_total", 1}, {"nocd_sweep_points_total", 4}, {"nocd_build_seconds_count", 5}} {
		if v, ok := sampleSum(body, c.name); !ok || v < c.min {
			t.Errorf("%s = %g (found %v), want at least %g", c.name, v, ok, c.min)
		}
	}
	// Every sweep and point has ended, so the gauges are back at zero.
	for _, name := range []string{"nocd_sweeps_active", "nocd_sweep_points_active"} {
		if v, ok := sampleSum(body, name); !ok || v != 0 {
			t.Errorf("%s = %g (found %v), want 0", name, v, ok)
		}
	}
	if _, spans := get(t, srv.URL+"/spans"); !strings.Contains(spans, `"span":"sweep"`) {
		t.Errorf("/spans has no sweep span:\n%s", spans)
	}
	if !strings.Contains(logBuf.String(), `"outcome":"cache-hit"`) {
		t.Errorf("request log has no cache-hit outcome:\n%s", logBuf.String())
	}
}
