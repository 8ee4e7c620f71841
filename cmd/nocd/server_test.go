package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"pseudocircuit/internal/service"
	"pseudocircuit/internal/telemetry"
	"pseudocircuit/noc"
	"pseudocircuit/nocdclient"
)

// startDaemon builds nocd from a flag list with newDaemon, as main does, and
// serves it until the test ends.
func startDaemon(t *testing.T, args ...string) (*httptest.Server, *daemon, *nocdclient.Client) {
	t.Helper()
	d, err := newDaemon(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(t, d)
	return srv, d, nocdclient.New(srv.URL)
}

// serve serves d's handler on a test server and stops both when the test
// ends, unless the test has stopped them first.
func serve(t *testing.T, d *daemon) *httptest.Server {
	srv := httptest.NewServer(d.handler)
	t.Cleanup(func() { stopDaemon(srv, d) })
	return srv
}

// stopDaemon drains d as main does, then closes its server. Either may have
// been stopped before.
func stopDaemon(srv *httptest.Server, d *daemon) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.shutdown(ctx, io.Discard)
	srv.Close()
}

func smallReq(seed uint64) nocdclient.Request {
	return nocdclient.Request{
		Spec: noc.Spec{
			Topology: "mesh4x4",
			Scheme:   "pseudo+s+b",
			VA:       "static",
			Seed:     seed,
			Warmup:   100,
			Measure:  400,
		},
		Workload: noc.WorkloadSpec{Pattern: "uniform", Rate: 0.10},
	}
}

// TestDaemonEndToEnd drives the whole loop through the client: health,
// submit+wait, result fetch, cache hit on resubmission.
func TestDaemonEndToEnd(t *testing.T) {
	_, d, c := startDaemon(t, "-workers", "2")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	j, err := c.SubmitWait(ctx, smallReq(1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if j.State != "done" || j.CacheHit || j.Result == nil {
		t.Fatalf("first run: state=%s cacheHit=%v result=%v (err %q)", j.State, j.CacheHit, j.Result, j.Error)
	}
	if j.CyclesDone != j.CyclesTotal || j.CyclesTotal != 500 {
		t.Fatalf("progress: %d/%d, want 500/500", j.CyclesDone, j.CyclesTotal)
	}

	res, err := c.Result(ctx, j.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if res != *j.Result {
		t.Fatalf("result endpoint diverged from job snapshot")
	}

	j2, err := c.Submit(ctx, smallReq(1))
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !j2.CacheHit || j2.State != "done" {
		t.Fatalf("resubmission: cacheHit=%v state=%s, want cached done", j2.CacheHit, j2.State)
	}
	if *j2.Result != *j.Result {
		t.Fatalf("cached result differs from original")
	}
	if s := d.jobs.Stats(); s["completed"] != 1 || s["cache_hits"] != 1 {
		t.Fatalf("stats after cache hit: %v", s)
	}
}

// TestDaemonAsShipped serves nocd as main builds it from an empty command
// line: the same spec twice is one simulation, then a cache hit with the
// byte-identical result; /metrics validates and counts both; /debug/pprof/
// serves and /debug/vars does not, since /metrics is the one counter
// surface.
func TestDaemonAsShipped(t *testing.T) {
	srv, _, _ := startDaemon(t)
	const spec = `{"topology":"mesh8x8","scheme":"pseudo+s+b","va":"static","warmup":200,"measure":1000,` +
		`"workload":{"pattern":"uniform","rate":0.1}}`
	submit := func() (cacheHit bool, result json.RawMessage) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/jobs?wait=1", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var j struct {
			State    string          `json:"state"`
			CacheHit bool            `json:"cacheHit"`
			Result   json.RawMessage `json:"result"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil || j.State != "done" {
			t.Fatalf("POST /jobs?wait=1: status %d, state %q, %v", resp.StatusCode, j.State, err)
		}
		return j.CacheHit, j.Result
	}
	hit1, r1 := submit()
	hit2, r2 := submit()
	if hit1 || !hit2 {
		t.Fatalf("cache hits %v then %v, want false then true", hit1, hit2)
	}
	if !bytes.Equal(r1, r2) {
		t.Fatalf("cache hit answered a different result:\n%s\n%s", r1, r2)
	}

	_, body := get(t, srv.URL+"/metrics")
	if _, err := telemetry.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{"nocd_cache_hits_total 1", `nocd_jobs_total{outcome="done"} 1`} {
		if !slices.Contains(strings.Split(body, "\n"), want) {
			t.Errorf("no line %q in /metrics", want)
		}
	}
	if resp, _ := get(t, srv.URL+"/debug/vars"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/vars = %d, want 404", resp.StatusCode)
	}
	if resp, body := get(t, srv.URL+"/debug/pprof/"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d, want the profile index", resp.StatusCode)
	}
}

// TestPeersNeedSelf: -peers without -self is refused by name before the
// daemon is built.
func TestPeersNeedSelf(t *testing.T) {
	d, err := newDaemon([]string{"-peers", "http://localhost:1"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-self") {
		t.Fatalf("-peers without -self: daemon %v, error %v; want an error naming -self", d, err)
	}
	// The peer list is split on commas and each name trimmed.
	var stderr bytes.Buffer
	if d, err = newDaemon([]string{"-self", "http://a", "-peers", " http://c , http://b"}, &stderr); err != nil {
		t.Fatal(err)
	}
	defer d.shutdown(context.Background(), io.Discard)
	if want := "dispatching sweeps across [http://a http://b http://c]"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q lacks %q", stderr.String(), want)
	}
}

// TestStoreDirMustBeADirectory: a -store-dir that could never be created (a
// component is a regular file) is refused before the daemon is built, even
// though a missing one is otherwise left for the first write to make.
func TestStoreDirMustBeADirectory(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon([]string{"-store-dir", filepath.Join(file, "store")}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "opening result store") {
		t.Fatalf("-store-dir below a regular file: daemon %v, error %v; want an error opening the store", d, err)
	}
}

// TestClientSeesStoreHit: a Go client can tell a job served from the disk
// store from one served from memory, as a sweep point's consumer already can.
func TestClientSeesStoreHit(t *testing.T) {
	dir := t.TempDir()
	daemon := func() *nocdclient.Client {
		_, _, c := startDaemon(t, "-workers", "1", "-store-dir", dir)
		return c
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cold, err := daemon().SubmitWait(ctx, smallReq(1))
	if err != nil {
		t.Fatalf("cold submit: %v", err)
	}
	if cold.State != "done" || cold.CacheHit || cold.StoreHit {
		t.Fatalf("cold run: %+v", cold)
	}
	// A second daemon on the same directory has the result on disk only.
	c := daemon()
	disk, err := c.SubmitWait(ctx, smallReq(1))
	if err != nil {
		t.Fatalf("disk submit: %v", err)
	}
	if !disk.CacheHit || !disk.StoreHit || *disk.Result != *cold.Result {
		t.Fatalf("disk hit: cacheHit=%v storeHit=%v", disk.CacheHit, disk.StoreHit)
	}
	mem, err := c.SubmitWait(ctx, smallReq(1))
	if err != nil {
		t.Fatalf("memory submit: %v", err)
	}
	if !mem.CacheHit || mem.StoreHit {
		t.Fatalf("memory hit: cacheHit=%v storeHit=%v", mem.CacheHit, mem.StoreHit)
	}
}

// TestDaemonCancel cancels an in-flight job over HTTP and checks the pool
// still serves the next job.
func TestDaemonCancel(t *testing.T) {
	_, _, c := startDaemon(t, "-workers", "1")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	long := smallReq(2)
	long.Spec.Measure = 8_000_000
	j, err := c.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, j.ID); err != nil {
		t.Fatal(err)
	}
	j, err = c.Wait(ctx, j.ID)
	if err != nil || j.State != "canceled" {
		t.Fatalf("after cancel: state=%s err=%v", j.State, err)
	}
	var apiErr *nocdclient.APIError
	if _, err := c.Result(ctx, j.ID); !errors.As(err, &apiErr) || apiErr.Status != http.StatusGone {
		t.Fatalf("result of canceled job: %v, want a 410", err)
	}

	j2, err := c.SubmitWait(ctx, smallReq(3))
	if err != nil || j2.State != "done" {
		t.Fatalf("post-cancel job: state=%s err=%v", j2.State, err)
	}
}

// TestDaemonErrors maps service failures onto HTTP statuses.
func TestDaemonErrors(t *testing.T) {
	srv, _, c := startDaemon(t, "-workers", "1")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	bad := smallReq(4)
	bad.Spec.Topology = "torus8x8"
	_, err := c.Submit(ctx, bad)
	apiErr, ok := err.(*nocdclient.APIError)
	if !ok || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("bad topology: err %v, want 400 APIError", err)
	}

	if _, err := c.Job(ctx, "nope"); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("unknown job: %v, want 404", err)
	}
	if _, err := c.Cancel(ctx, "nope"); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("cancel unknown job: %v, want 404", err)
	}

	for _, body := range []string{
		`{"bogus`,
		`{"topology":"mesh4x4","scheme":"pseudo","workers":2,"workload":{"rate":0.1}}`, // no such field
	} {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func isStatus(err error, status int) bool {
	apiErr, ok := err.(*nocdclient.APIError)
	return ok && apiErr.Status == status
}

// TestDaemonWatchStream reads the NDJSON progress stream: every line must
// decode as a job snapshot and the last one must be terminal.
func TestDaemonWatchStream(t *testing.T) {
	srv, _, c := startDaemon(t, "-workers", "1")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	req := smallReq(5)
	req.Spec.Measure = 300_000 // long enough for a few stream ticks
	j, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/jobs/" + j.ID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var last nocdclient.Job
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("line %d: %v (%s)", lines, err, sc.Text())
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 || last.State != "done" {
		t.Fatalf("stream ended after %d lines in state %q, want terminal done", lines, last.State)
	}
	if last.CyclesDone != last.CyclesTotal {
		t.Fatalf("final stream line shows partial progress %d/%d", last.CyclesDone, last.CyclesTotal)
	}
}

// TestDaemonWatchStreamCanceledJob: the stream's contract is that the last
// line is always the terminal snapshot, whatever the terminal state — cancel
// the job mid-stream and the stream must end on a "canceled" line, not just
// stop.
func TestDaemonWatchStreamCanceledJob(t *testing.T) {
	srv, _, c := startDaemon(t, "-workers", "1")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	req := smallReq(6)
	req.Spec.Measure = 8_000_000
	j, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/jobs/" + j.ID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var last nocdclient.Job
	var canceledAt time.Time
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("line %d: %v (%s)", lines, err, sc.Text())
		}
		lines++
		if lines == 1 {
			if _, err := c.Cancel(ctx, j.ID); err != nil {
				t.Fatal(err)
			}
			canceledAt = time.Now()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 || last.State != "canceled" {
		t.Fatalf("stream ended after %d lines in state %q, want terminal canceled", lines, last.State)
	}
	// The job is terminal within one chunk of the cancel, and the stream
	// wakes on that, not on its next progress tick.
	if d := time.Since(canceledAt); d >= watchInterval/2 {
		t.Fatalf("stream ended %v after the cancel; the progress ticker is %v", d, watchInterval)
	}
}

// TestDaemonWatchStreamClientCancel: when the watcher goes away the stream
// handler must return promptly (within roughly one tick), not keep encoding
// into a dead connection for the life of the job.
func TestDaemonWatchStreamClientCancel(t *testing.T) {
	srv, _, c := startDaemon(t, "-workers", "1")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	req := smallReq(7)
	req.Spec.Measure = 8_000_000
	j, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Cancel(ctx, j.ID)

	streamCtx, stop := context.WithCancel(ctx)
	defer stop()
	hr, err := http.NewRequestWithContext(streamCtx, "GET", srv.URL+"/jobs/"+j.ID+"?watch=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first stream line: %v", sc.Err())
	}
	stop()
	start := time.Now()
	for sc.Scan() {
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stream kept flowing %v after client cancel", elapsed)
	}
}

// TestDaemonWaitClientDisconnect: a ?wait request whose client has gone away
// must not be answered at all — the old behaviour wrote 200 with a stale
// non-terminal snapshot, which a proxy or buffered client could mistake for
// completion. Exercised for both GET /jobs/{id}?wait and POST /jobs?wait by
// calling the daemon's handler directly with an already-canceled request
// context.
func TestDaemonWaitClientDisconnect(t *testing.T) {
	_, d, _ := startDaemon(t, "-workers", "1")
	m := d.jobs

	long := smallReq(8)
	long.Spec.Measure = 8_000_000
	body, err := json.Marshal(long)
	if err != nil {
		t.Fatal(err)
	}
	req, err := service.DecodeRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Cancel(j.ID)

	gone, cancel := context.WithCancel(context.Background())
	cancel()

	hr := httptest.NewRequest("GET", "/jobs/"+j.ID+"?wait=1", nil).WithContext(gone)
	rr := httptest.NewRecorder()
	d.handler.ServeHTTP(rr, hr)
	if rr.Body.Len() != 0 {
		t.Fatalf("status?wait for disconnected client wrote a body: %s", rr.Body.String())
	}

	hr = httptest.NewRequest("POST", "/jobs?wait=1", strings.NewReader(string(body))).WithContext(gone)
	rr = httptest.NewRecorder()
	d.handler.ServeHTTP(rr, hr)
	if rr.Body.Len() != 0 {
		t.Fatalf("submit?wait for disconnected client wrote a body: %s", rr.Body.String())
	}
}

// TestDaemonRefusals: each refusal the handlers make has its own status: an
// unreadable or oversized body, a job or sweep that does not exist, a result
// asked for before its job finished, a full queue and a draining daemon. A
// drain whose deadline passes with work running says so on stderr.
func TestDaemonRefusals(t *testing.T) {
	_, d, _ := startDaemon(t, "-workers", "1", "-queue", "1")
	do := func(method, path string, body io.Reader) (int, string) {
		rec := httptest.NewRecorder()
		d.handler.ServeHTTP(rec, httptest.NewRequest(method, path, body))
		return rec.Code, rec.Body.String()
	}
	for _, c := range []struct {
		method, path string
		body         io.Reader
		want         int
	}{
		{"POST", "/jobs", iotest.ErrReader(errors.New("connection reset")), http.StatusBadRequest},
		{"POST", "/sweeps", iotest.ErrReader(errors.New("connection reset")), http.StatusBadRequest},
		{"POST", "/jobs", strings.NewReader(strings.Repeat(" ", maxBodyBytes+1)), http.StatusRequestEntityTooLarge},
		{"GET", "/jobs/nope/result", nil, http.StatusNotFound},
		{"POST", "/sweeps/nope/cancel", nil, http.StatusNotFound},
	} {
		if got, body := do(c.method, c.path, c.body); got != c.want {
			t.Errorf("%s %s: status %d, want %d: %s", c.method, c.path, got, c.want, body)
		}
	}

	// One worker and a queue of one: long jobs fill both, and the next
	// submission is refused until one leaves.
	long := func(seed int) string {
		return `{"topology":"mesh4x4","scheme":"baseline","measure":8000000,"seed":` + strconv.Itoa(seed) +
			`,"workload":{"pattern":"uniform","rate":0.1}}`
	}
	status, body := do("POST", "/jobs", strings.NewReader(long(1)))
	var first service.Job
	if err := json.Unmarshal([]byte(body), &first); status != http.StatusAccepted || err != nil {
		t.Fatalf("long job: status %d, %v: %s", status, err, body)
	}
	if status, body := do("GET", "/jobs/"+first.ID+"/result", nil); status != http.StatusConflict {
		t.Errorf("result of a running job: status %d, want 409: %s", status, body)
	}
	full := false
	for seed := 2; seed <= 4 && !full; seed++ {
		status, _ = do("POST", "/jobs", strings.NewReader(long(seed)))
		full = status == http.StatusTooManyRequests
	}
	if !full {
		t.Errorf("no 429 with one worker and a queue of one full of long jobs (last status %d)", status)
	}
	sweep := `{"template":{"topology":"mesh4x4","scheme":"baseline","measure":8000000,` +
		`"workload":{"pattern":"uniform","rate":0.1}},"axes":{"seed":[5,6]}}`
	if status, body := do("POST", "/sweeps", strings.NewReader(sweep)); status != http.StatusAccepted {
		t.Fatalf("long sweep: status %d: %s", status, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	var stderr bytes.Buffer
	d.shutdown(ctx, &stderr)
	for _, want := range []string{"running sweeps cancelled", "in-flight jobs cancelled"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("drain past its deadline: stderr lacks %q:\n%s", want, stderr.String())
		}
	}
	if status, _ := do("POST", "/jobs", strings.NewReader(long(7))); status != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", status)
	}
	if status, _ := do("POST", "/sweeps", strings.NewReader(sweep)); status != http.StatusServiceUnavailable {
		t.Errorf("sweep while draining: status %d, want 503", status)
	}
}
