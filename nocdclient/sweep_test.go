package nocdclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// sweepScript serves POST /sweeps?watch=1 with a canned NDJSON body,
// optionally cutting the connection partway through.
func sweepScript(t *testing.T, lines []string, cutAfter int) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/sweeps" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher := w.(http.Flusher)
		for i, line := range lines {
			if cutAfter >= 0 && i == cutAfter {
				// Panic with ErrAbortHandler resets the connection without
				// a graceful close — the sharpest form of disconnect.
				panic(http.ErrAbortHandler)
			}
			io.WriteString(w, line+"\n")
			flusher.Flush()
		}
	}))
}

func sweepLines() []string {
	return []string{
		`{"type":"sweep","sweep":{"id":"s1","state":"running","points":3}}`,
		`{"type":"point","point":{"index":0,"key":"k0","state":"done","source":"local"}}`,
		`{"type":"point","point":{"index":1,"key":"k1","state":"done","source":"remote"}}`,
		`{"type":"point","point":{"index":2,"key":"k2","state":"failed","error":"boom"}}`,
		`{"type":"end","sweep":{"id":"s1","state":"done","points":3,"completed":3,"done":2,"failed":1}}`,
	}
}

// TestSubmitSweepStream: a complete stream yields every point in order,
// then io.EOF with the terminal status.
func TestSubmitSweepStream(t *testing.T) {
	srv := sweepScript(t, sweepLines(), -1)
	defer srv.Close()
	st, err := New(srv.URL).SubmitSweep(context.Background(), SweepRequest{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Sweep(); got.ID != "s1" || got.Points != 3 || got.Terminal() {
		t.Fatalf("acceptance: %+v", got)
	}
	if _, ok := st.Final(); ok {
		t.Fatal("Final valid before the stream ended")
	}
	var pts []SweepPoint
	for {
		p, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, p)
	}
	if len(pts) != 3 || pts[0].Key != "k0" || pts[1].Source != "remote" ||
		pts[2].State != "failed" || pts[2].Error != "boom" {
		t.Fatalf("points: %+v", pts)
	}
	fin, ok := st.Final()
	if !ok || fin.State != "done" || fin.Done != 2 || fin.Failed != 1 {
		t.Fatalf("final: ok %v %+v", ok, fin)
	}
	// EOF is sticky, not an error loop.
	if _, err := st.Next(); err != io.EOF {
		t.Fatalf("after end: %v", err)
	}
}

// TestSweepStreamDisconnect: a connection cut mid-stream surfaces
// ErrTruncatedStream after the delivered points, never a silent EOF.
func TestSweepStreamDisconnect(t *testing.T) {
	srv := sweepScript(t, sweepLines(), 2) // sweep + 1 point, then reset
	defer srv.Close()
	st, err := New(srv.URL).SubmitSweep(context.Background(), SweepRequest{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if p, err := st.Next(); err != nil || p.Index != 0 {
		t.Fatalf("first point: %+v %v", p, err)
	}
	_, err = st.Next()
	if err == nil || err == io.EOF || !errors.Is(err, ErrTruncatedStream) {
		t.Fatalf("disconnect surfaced as %v, want ErrTruncatedStream", err)
	}
	if _, err2 := st.Next(); !errors.Is(err2, ErrTruncatedStream) {
		t.Fatalf("truncation not sticky: %v", err2)
	}
	if _, ok := st.Final(); ok {
		t.Fatal("Final valid on a truncated stream")
	}
}

// TestSweepStreamCleanCutIsTruncation: even a graceful server close without
// an end line is truncation — the end line is the only success signal.
func TestSweepStreamCleanCutIsTruncation(t *testing.T) {
	srv := sweepScript(t, sweepLines()[:2], -1) // sweep + 1 point, clean EOF
	defer srv.Close()
	st, err := New(srv.URL).SubmitSweep(context.Background(), SweepRequest{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); !errors.Is(err, ErrTruncatedStream) {
		t.Fatalf("clean cut surfaced as %v, want ErrTruncatedStream", err)
	}
}

// TestSweepStreamMalformed: garbage lines and protocol violations are
// sticky decode errors, not panics or silent skips.
func TestSweepStreamMalformed(t *testing.T) {
	cases := []struct {
		name  string
		lines []string
		want  string
	}{
		{"garbage json", []string{sweepLines()[0], `{not json`}, "malformed"},
		{"point without payload", []string{sweepLines()[0], `{"type":"point"}`}, "point line"},
		{"end without status", []string{sweepLines()[0], `{"type":"end"}`}, "end line"},
		{"unknown type", []string{sweepLines()[0], `{"type":"surprise"}`}, "unexpected"},
		{"second sweep line", []string{sweepLines()[0], sweepLines()[0]}, "unexpected"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := sweepScript(t, tc.lines, -1)
			defer srv.Close()
			st, err := New(srv.URL).SubmitSweep(context.Background(), SweepRequest{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			_, err = st.Next()
			if err == nil || err == io.EOF || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
			if _, err2 := st.Next(); err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("error not sticky: %v then %v", err, err2)
			}
		})
	}
	// A line past bufio's 64 KiB default but within maxStreamLine is whole.
	long := strings.Repeat("x", 100<<10)
	srv := sweepScript(t, []string{sweepLines()[0], `{"type":"point","point":{"index":0,"error":"` + long + `"}}`}, -1)
	defer srv.Close()
	st, err := New(srv.URL).SubmitSweep(context.Background(), SweepRequest{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if p, err := st.Next(); err != nil || p.Error != long {
		t.Fatalf("a 100 KiB line: %d bytes of error, %v", len(p.Error), err)
	}
}

// TestSweepStreamBadFirstLine: a stream that does not open with the sweep
// acceptance line fails SubmitSweep itself.
func TestSweepStreamBadFirstLine(t *testing.T) {
	srv := sweepScript(t, sweepLines()[1:], -1)
	defer srv.Close()
	if _, err := New(srv.URL).SubmitSweep(context.Background(), SweepRequest{}); err == nil ||
		!strings.Contains(err.Error(), "want sweep") {
		t.Fatalf("err = %v", err)
	}
}

// TestSweepStreamContextCancel: cancelling the caller's context breaks a
// stalled stream promptly with the context's error in the chain.
func TestSweepStreamContextCancel(t *testing.T) {
	stall := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, sweepLines()[0]+"\n")
		w.(http.Flusher).Flush()
		<-stall
	}))
	defer srv.Close()
	defer close(stall)
	ctx, cancel := context.WithCancel(context.Background())
	st, err := New(srv.URL).SubmitSweep(ctx, SweepRequest{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	done := make(chan error, 1)
	go func() {
		_, err := st.Next()
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil || err == io.EOF {
			t.Fatalf("cancelled stream returned %v", err)
		}
		if !errors.Is(err, context.Canceled) && !strings.Contains(err.Error(), "context canceled") {
			t.Fatalf("cancellation not surfaced: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Next did not return after context cancellation")
	}
}

// TestSubmitSweepAPIError: a non-200 submission decodes the daemon's error
// body into an APIError.
func TestSubmitSweepAPIError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("sweep submission content type %q", ct)
		}
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "grid too large"})
	}))
	defer srv.Close()
	c := New(srv.URL)
	_, err := c.SubmitSweep(context.Background(), SweepRequest{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 || apiErr.Message != "grid too large" {
		t.Fatalf("err = %v", err)
	}
	if s := c.RetryStats(); s.Attempts != 1 {
		t.Errorf("a refused sweep: %d attempts counted, want 1", s.Attempts)
	}
}

// TestSweepStatusAndCancel: the status and cancel helpers hit the right
// endpoints and decode the sweep snapshot.
func TestSweepStatusAndCancel(t *testing.T) {
	var cancelled bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch fmt.Sprintf("%s %s", r.Method, r.URL.Path) {
		case "GET /sweeps/s7":
			json.NewEncoder(w).Encode(SweepStatus{ID: "s7", State: "running", Points: 4})
		case "POST /sweeps/s7/cancel":
			cancelled = true
			json.NewEncoder(w).Encode(SweepStatus{ID: "s7", State: "canceled", Points: 4})
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	c := New(srv.URL)
	st, err := c.Sweep(context.Background(), "s7")
	if err != nil || st.ID != "s7" || st.Terminal() {
		t.Fatalf("status: %+v %v", st, err)
	}
	st, err = c.CancelSweep(context.Background(), "s7")
	if err != nil || !cancelled || st.State != "canceled" {
		t.Fatalf("cancel: %+v %v (hit %v)", st, err, cancelled)
	}
}

// TestSubmitSweepErrors: a sweep that does not encode, a base URL that does
// not parse, a daemon that is gone, a refusal that is not JSON and a stream
// with no acceptance line each fail the submission.
func TestSubmitSweepErrors(t *testing.T) {
	ctx := context.Background()
	nan := SweepRequest{Template: Request{Workload: noc.WorkloadSpec{Rate: math.NaN()}}}
	var bad *json.UnsupportedValueError
	if _, err := New("http://localhost").SubmitSweep(ctx, nan); !errors.As(err, &bad) {
		t.Errorf("a NaN rate: %v, want the encoding's error", err)
	}
	if _, err := New("http://bad\x7f").SubmitSweep(ctx, SweepRequest{}); err == nil {
		t.Error("an unparsable base URL: no error")
	}
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "overloaded", http.StatusBadGateway)
		} // then: 200 with an empty stream
	}))
	var apiErr *APIError
	if _, err := New(srv.URL).SubmitSweep(ctx, SweepRequest{}); !errors.As(err, &apiErr) ||
		apiErr.Status != http.StatusBadGateway || apiErr.Message != "overloaded\n" {
		t.Errorf("a plain-text refusal: %v", err)
	}
	if _, err := New(srv.URL).SubmitSweep(ctx, SweepRequest{}); err == nil || !strings.Contains(err.Error(), "acceptance") {
		t.Errorf("an empty stream: %v", err)
	}
	srv.Close()
	if _, err := New(srv.URL).SubmitSweep(ctx, SweepRequest{}); err == nil {
		t.Error("a stopped daemon: no error")
	}
}
