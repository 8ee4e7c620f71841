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
	"strconv"
	"strings"
	"testing"
	"time"

	"pseudocircuit/internal/sweepapi"
	"pseudocircuit/internal/telemetry"
	"pseudocircuit/noc"
	"pseudocircuit/nocdclient"
)

const sweepBody = `{
  "template": {"topology":"mesh4x4","scheme":"baseline","va":"static",
               "warmup":50,"measure":200,
               "workload":{"pattern":"uniform","rate":0.1}},
  "axes": {"scheme": ["baseline","pseudo"], "seed": [1,2,3]}}`

// postSweepStream submits a sweep with ?watch=1 and decodes the NDJSON
// stream into its typed lines, failing the test on protocol violations.
func postSweepStream(t *testing.T, base, body string) (first, last sweepapi.Status, points []sweepapi.PointStatus) {
	t.Helper()
	resp, err := http.Post(base+"/sweeps?watch=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	n, ended := 0, false
	for sc.Scan() {
		var line struct {
			Type  string                `json:"type"`
			Sweep *sweepapi.Status      `json:"sweep"`
			Point *sweepapi.PointStatus `json:"point"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %d: %v: %s", n, err, sc.Text())
		}
		switch line.Type {
		case "sweep":
			if n != 0 || line.Sweep == nil {
				t.Fatalf("line %d: stray sweep line", n)
			}
			first = *line.Sweep
		case "point":
			if line.Point == nil || ended {
				t.Fatalf("line %d: malformed point line", n)
			}
			points = append(points, *line.Point)
		case "end":
			if line.Sweep == nil || ended {
				t.Fatalf("line %d: malformed end line", n)
			}
			last, ended = *line.Sweep, true
		default:
			t.Fatalf("line %d: unknown type %q", n, line.Type)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !ended {
		t.Fatal("stream ended without an end line")
	}
	return first, last, points
}

// TestSweepEndpointStreams: POST /sweeps?watch=1 streams every point and a
// terminal status, each result bit-identical to a direct experiment run.
func TestSweepEndpointStreams(t *testing.T) {
	srv, _, _ := startDaemon(t, "-workers", "2")
	first, last, points := postSweepStream(t, srv.URL, sweepBody)
	if first.Points != 6 || first.State != "running" {
		t.Fatalf("first line: %+v", first)
	}
	if last.State != "done" || last.Done != 6 || last.Completed != 6 {
		t.Fatalf("end line: %+v", last)
	}
	if len(points) != 6 {
		t.Fatalf("streamed %d points, want 6", len(points))
	}
	for _, p := range points {
		if p.State != "done" || p.Result == nil {
			t.Fatalf("point %d: %+v", p.Index, p)
		}
		exp, err := p.Spec.Spec.Experiment()
		if err != nil {
			t.Fatal(err)
		}
		want := exp.RunSynthetic(noc.Synthetic{Pattern: noc.UniformRandom, Rate: p.Spec.Workload.Rate})
		got, _ := json.Marshal(*p.Result)
		wantB, _ := json.Marshal(want)
		if string(got) != string(wantB) {
			t.Fatalf("point %d diverged from direct run:\nsweep:  %s\ndirect: %s", p.Index, got, wantB)
		}
	}
}

// TestSweepEndpointRejects: hostile grids get explicit 400s, oversized
// expansion included; nothing is retained.
func TestSweepEndpointRejects(t *testing.T) {
	srv, _, _ := startDaemon(t, "-workers", "1")
	cases := []string{
		`{"axes":{"seed":[1]}}`,
		`{"template":{"topology":"mesh4x4"},"axes":{"seed":[1],"seed":[2]}}`,
		`{"template":{"topology":"mesh4x4","scheme":"pseudo","workers":2,"workload":{"rate":0.1}},"axes":{"seed":[1]}}`,
		`not json`,
	}
	for _, body := range cases {
		resp, err := http.Post(srv.URL+"/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	var list []sweepapi.Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 0 {
		t.Fatalf("rejected sweeps retained: %+v", list)
	}
	if resp, err := http.Get(srv.URL + "/sweeps/nope"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown sweep: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
}

// TestSweepEndpointCancel: DELETE /sweeps/{id} lands the sweep in the
// canceled state with point accounting closed.
func TestSweepEndpointCancel(t *testing.T) {
	srv, _, _ := startDaemon(t, "-workers", "1")
	body := `{
	  "template": {"topology":"mesh8x8","scheme":"pseudo","va":"static",
	               "warmup":100,"measure":20000,
	               "workload":{"pattern":"uniform","rate":0.05}},
	  "axes": {"seed": [1,2,3,4,5,6,7,8]}}`
	resp, err := http.Post(srv.URL+"/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st sweepapi.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/sweeps/"+st.ID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/sweeps/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep never terminated: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.State != "canceled" || st.Canceled == 0 || st.Completed != st.Points {
		t.Fatalf("canceled sweep: %+v", st)
	}
}

// TestShutdownDrainsSweepsFirst: a sweep still running when the daemon
// drains finishes every point. Sweeps drain before jobs, so the points the
// sweep has yet to submit still find the job queue open; drained the other
// way round they meet a closed queue and the sweep ends canceled. One worker
// and one point in flight keep most of the six points unsubmitted when
// shutdown starts.
func TestShutdownDrainsSweepsFirst(t *testing.T) {
	srv, d, _ := startDaemon(t, "-workers", "1", "-sweep-inflight", "1")
	resp, err := http.Post(srv.URL+"/sweeps", "application/json", strings.NewReader(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	var st sweepapi.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var stderr bytes.Buffer
	d.shutdown(ctx, &stderr)
	if stderr.Len() != 0 {
		t.Errorf("drain was not clean: %s", stderr.String())
	}
	if st, _ = d.sweeps.Get(st.ID); st.State != "done" || st.Done != 6 || st.Failed != 0 {
		t.Fatalf("sweep after the drain: %+v, want done with 6 of 6 points and none failed", st)
	}
}

// TestSweepStreamWakesOnCompletion: a sweep answered wholly from the cache
// is finished in a few milliseconds, and its stream must say so then, not at
// the next progress tick. 64 points keep the sweep alive past the stream's
// first look at it, which is the case that used to wait out the ticker.
func TestSweepStreamWakesOnCompletion(t *testing.T) {
	_, _, c := startDaemon(t, "-workers", "2")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	seeds := make([]any, 32)
	for i := range seeds {
		seeds[i] = i + 1
	}
	req := nocdclient.SweepRequest{
		Template: smallReq(0),
		Axes:     map[string][]any{"scheme": {"baseline", "pseudo"}, "seed": seeds},
	}
	run := func() (time.Duration, nocdclient.SweepStatus) {
		start := time.Now()
		stream, err := c.SubmitSweep(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Close()
		for {
			if _, err := stream.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		fin, _ := stream.Final()
		return time.Since(start), fin
	}
	if _, fin := run(); fin.Done != 64 || fin.CacheHits != 0 {
		t.Fatalf("cold sweep: %+v", fin)
	}
	// Best of three: the bound is on the protocol, not on a shared host's
	// worst scheduling hiccup.
	best := time.Hour
	for i := 0; i < 3; i++ {
		d, fin := run()
		if fin.Done != 64 || fin.CacheHits != 64 {
			t.Fatalf("cached sweep: %+v", fin)
		}
		best = min(best, d)
	}
	if best >= sweepWatchInterval/2 {
		t.Fatalf("a fully cached sweep took %v to stream; the progress ticker is %v", best, sweepWatchInterval)
	}
}

// TestSweepServedFromRestartedStore is the acceptance test for the
// persistence tier at the daemon level: a sweep runs against one daemon
// with a disk store, the daemon is torn down, and a fresh daemon on the
// same directory serves the identical sweep entirely from disk — zero
// simulations, confirmed by the store-hit metric and the cycle counter.
func TestSweepServedFromRestartedStore(t *testing.T) {
	dir := t.TempDir()
	srv1, d1, _ := startDaemon(t, "-workers", "2", "-store-dir", dir)
	_, last1, points1 := postSweepStream(t, srv1.URL, sweepBody)
	if last1.State != "done" || last1.Done != 6 || last1.StoreHits != 0 {
		t.Fatalf("first sweep: %+v", last1)
	}
	stopDaemon(srv1, d1)

	srv2, d2, _ := startDaemon(t, "-workers", "2", "-store-dir", dir)
	_, last2, points2 := postSweepStream(t, srv2.URL, sweepBody)
	if last2.State != "done" || last2.Done != 6 {
		t.Fatalf("restarted sweep: %+v", last2)
	}
	if last2.StoreHits != 6 || last2.CacheHits != 6 {
		t.Fatalf("restarted sweep not served from disk: %+v", last2)
	}
	if got := d2.jobs.Stats()["store_hits"]; got != 6 {
		t.Fatalf("store_hits = %d, want 6", got)
	}

	// Bit-identical across the restart, point by point (stream order may
	// differ; match by key).
	byKey := map[string]string{}
	for _, p := range points1 {
		b, _ := json.Marshal(*p.Result)
		byKey[p.Key] = string(b)
	}
	for _, p := range points2 {
		b, _ := json.Marshal(*p.Result)
		if byKey[p.Key] != string(b) {
			t.Fatalf("point key %s diverged across restart", p.Key)
		}
	}

	// The restarted daemon's exposition is well formed and says the same:
	// hits counted, the six entries resident, zero cycles simulated since the
	// restart.
	_, body := get(t, srv2.URL+"/metrics")
	if _, err := telemetry.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	metrics := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			metrics[f[0]] = f[1]
		}
	}
	if metrics["nocd_store_hits_total"] != "6" || metrics["nocd_store_evictions_total"] != "0" {
		t.Fatalf("nocd_store_hits_total = %q, want 6; nocd_store_evictions_total = %q, want 0",
			metrics["nocd_store_hits_total"], metrics["nocd_store_evictions_total"])
	}
	if n, err := strconv.ParseFloat(metrics["nocd_store_entries"], 64); err != nil || n < 6 {
		t.Fatalf("nocd_store_entries = %q, want at least 6", metrics["nocd_store_entries"])
	}
	if n, err := strconv.ParseFloat(metrics["nocd_store_bytes"], 64); err != nil || n <= 0 {
		t.Fatalf("nocd_store_bytes = %q, want the entries' bytes", metrics["nocd_store_bytes"])
	}
	if metrics["nocd_cycles_simulated_total"] != "0" {
		t.Fatalf("restarted daemon simulated cycles: %q", metrics["nocd_cycles_simulated_total"])
	}
}

// TestTwoNodeSweepDispatch is the fleet acceptance test: two daemons, each
// listing the other as a peer, split a sweep's grid by consistent hashing —
// every point simulated exactly once across the fleet, results identical to
// a direct run. Node A receives the sweep; node B serves its share over
// HTTP.
func TestTwoNodeSweepDispatch(t *testing.T) {
	// Node B first: a plain daemon; its URL seeds node A's peer list.
	srvB, dB, _ := startDaemon(t, "-workers", "2")

	// Node A: dispatches across {A, B}. Its own name never appears in a
	// request, so any spelling works as long as it is ring-distinct.
	srvA, dA, _ := startDaemon(t, "-workers", "2", "-self", "http://node-a", "-peers", srvB.URL)

	body := `{
	  "template": {"topology":"mesh4x4","scheme":"baseline","va":"static",
	               "warmup":50,"measure":200,
	               "workload":{"pattern":"uniform","rate":0.1}},
	  "axes": {"scheme": ["baseline","pseudo"], "seed": [1,2,3,4,5,6,7,8]}}`
	_, last, points := postSweepStream(t, srvA.URL, body)
	if last.State != "done" || last.Done != 16 {
		t.Fatalf("sweep: %+v", last)
	}

	aRan := dA.jobs.Stats()["completed"]
	bRan := dB.jobs.Stats()["completed"]
	if aRan+bRan != 16 || aRan == 0 || bRan == 0 {
		t.Fatalf("fleet ran %d+%d jobs; want all 16 split across both nodes", aRan, bRan)
	}
	if last.Remote != int(bRan) {
		t.Fatalf("sweep counted %d remote points, node B ran %d", last.Remote, bRan)
	}

	remotes := 0
	for _, p := range points {
		if p.Source == "remote" {
			remotes++
		}
		exp, err := p.Spec.Spec.Experiment()
		if err != nil {
			t.Fatal(err)
		}
		want := exp.RunSynthetic(noc.Synthetic{Pattern: noc.UniformRandom, Rate: p.Spec.Workload.Rate})
		got, _ := json.Marshal(*p.Result)
		wantB, _ := json.Marshal(want)
		if string(got) != string(wantB) {
			t.Fatalf("point %d (%s seed %d) diverged from direct run",
				p.Index, p.Spec.Scheme, p.Spec.Seed)
		}
	}
	if remotes != int(bRan) {
		t.Fatalf("%d points marked remote, node B ran %d", remotes, bRan)
	}
}

// goneClient is a ResponseWriter whose body writes fail once ok of them have
// gone through, as a connection the client has closed does.
type goneClient struct {
	header http.Header
	ok     int
}

func (g *goneClient) Header() http.Header { return g.header }
func (g *goneClient) WriteHeader(int)     {}
func (g *goneClient) Write(b []byte) (int, error) {
	if g.ok == 0 {
		return 0, errors.New("client gone")
	}
	g.ok--
	return len(b), nil
}

// TestStreamsEndWithTheirClient: a stream whose writes start failing ends
// at its next line (a job's status, a sweep's first line or a point), and a
// sweep wait or stream whose client hangs up returns while the sweep runs
// on.
func TestStreamsEndWithTheirClient(t *testing.T) {
	_, d, c := startDaemon(t, "-workers", "1")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := c.SubmitWait(ctx, smallReq(1))
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := d.sweeps.Submit([]byte(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.sweeps.Wait(ctx, sweep.ID); err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		target string
		ok     int
	}{
		{"/jobs/" + j.ID + "?watch=1", 0},
		{"/sweeps/" + sweep.ID + "?watch=1", 0},
		{"/sweeps/" + sweep.ID + "?watch=1", 1},
	} {
		w := &goneClient{header: http.Header{}, ok: s.ok}
		d.handler.ServeHTTP(w, httptest.NewRequest("GET", s.target, nil))
		if w.ok != 0 {
			t.Errorf("%s: stream stopped before its writes failed", s.target)
		}
	}

	long, err := d.sweeps.Submit([]byte(`{"template":{"topology":"mesh4x4","scheme":"baseline","measure":8000000,
		"workload":{"pattern":"uniform","rate":0.1}},"axes":{"seed":[1,2]}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer d.sweeps.Cancel(long.ID)
	for _, target := range []string{"/sweeps/" + long.ID + "?wait=1", "/sweeps/" + long.ID + "?watch=1"} {
		hangUp, stop := context.WithTimeout(ctx, 20*time.Millisecond)
		d.handler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", target, nil).WithContext(hangUp))
		stop()
		if st, _ := d.sweeps.Get(long.ID); st.Terminal() {
			t.Errorf("%s: the client's hang-up ended the sweep: %+v", target, st)
		}
	}
}
