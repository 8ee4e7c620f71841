package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pseudocircuit/internal/service"
	"pseudocircuit/internal/sweepapi"
	"pseudocircuit/internal/telemetry"
	"pseudocircuit/nocdclient"
)

// hungPeer is a daemon that accepts connections and never answers: every
// request matching hangs blocks until the client gives up or the test ends.
// The rest are served by next (nil: 404).
func hungPeer(t *testing.T, hangs func(*http.Request) bool, next http.Handler) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	release := make(chan struct{})
	var hung atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case hangs(r):
			hung.Add(1)
			select {
			case <-r.Context().Done():
			case <-release:
			}
		case next != nil:
			next.ServeHTTP(w, r)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(func() {
		close(release) // before Close, which waits for open requests
		srv.Close()
	})
	return srv, &hung
}

// sweepOwnedBy is a sweep of n points whose keys all have want as their
// first owner on d's ring.
func sweepOwnedBy(t *testing.T, d *Dispatcher, want string, n int) []byte {
	t.Helper()
	var seeds []string
	for seed := uint64(1); seed < 4096 && len(seeds) < n; seed++ {
		if _, key := dispatchReq(seed); d.Ring().Owners(key, 1)[0] == want {
			seeds = append(seeds, fmt.Sprint(seed))
		}
	}
	if len(seeds) < n {
		t.Fatalf("only %d seeds under 4096 hash to %s", len(seeds), want)
	}
	return []byte(`{"template": {"topology":"mesh4x4","scheme":"pseudo","va":"static",
	  "warmup":50,"measure":200,"workload":{"pattern":"uniform","rate":0.1}},
	  "axes": {"seed": [` + strings.Join(seeds, ",") + `]}}`)
}

func localTier(t *testing.T) *service.Manager {
	t.Helper()
	m := service.New(service.Config{Workers: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

func exposition(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestHungPeerCostsABoundedWait: a sweep whose every point is owned by a
// peer that accepts connections and never answers finishes through local
// fallback, each point having waited answerBound once, and the owner is
// counted as failed once per point. (The parent waited five minutes per
// owner.)
func TestHungPeerCostsABoundedWait(t *testing.T) {
	const points, bound = 4, 150 * time.Millisecond
	srv, hung := hungPeer(t, func(*http.Request) bool { return true }, nil)
	local := localTier(t)
	d, err := New(Config{Self: "http://self", Peers: []string{srv.URL}, Replicas: 1,
		Retry: fastRetry(), Telemetry: local.Telemetry(), Spans: local.SpanLog()})
	if err != nil {
		t.Fatal(err)
	}
	d.answerBound = bound
	sw := sweepapi.New(local, sweepapi.Config{Dispatcher: d, Inflight: points})

	start := time.Now()
	st, err := sw.Submit(sweepOwnedBy(t, d, srv.URL, points))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second) // the parent: 5 min a point
	defer cancel()
	st, err = sw.Wait(ctx, st.ID)
	took := time.Since(start)
	if err != nil || st.State != service.StateDone || st.Done != points || st.Remote != 0 {
		t.Fatalf("sweep after %v: %+v err %v", took, st, err)
	}
	// All points are in flight at once, so the sweep waits out one bound.
	if took < bound {
		t.Fatalf("sweep took %v, under the %v the hung owner should have cost", took, bound)
	}
	pts, _, _, _ := sw.PointsSince(st.ID, 0)
	for _, p := range pts {
		if p.Source != service.RouteFallback || p.Result == nil {
			t.Fatalf("point %d: source %q, result %v; want a fallback result", p.Index, p.Source, p.Result)
		}
	}
	if got := hung.Load(); got != points {
		t.Fatalf("hung peer saw %d requests, want one per point (%d)", got, points)
	}
	out := exposition(t, local.Telemetry())
	for _, want := range []string{
		fmt.Sprintf("nocd_dispatch_peer_errors_total %d", points),
		fmt.Sprintf(`nocd_dispatch_total{route="fallback"} %d`, points),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics lack %q:\n%s", want, out)
		}
	}
}

// TestCancelDoesNotWaitForAHungPeer: cancelling a sweep whose points are
// all waiting on a hung owner ends it at once, not at the bound.
func TestCancelDoesNotWaitForAHungPeer(t *testing.T) {
	const points = 3
	srv, hung := hungPeer(t, func(*http.Request) bool { return true }, nil)
	local := localTier(t)
	d, err := New(Config{Self: "http://self", Peers: []string{srv.URL}, Replicas: 1, Retry: fastRetry(),
		Telemetry: local.Telemetry()})
	if err != nil {
		t.Fatal(err)
	}
	d.answerBound = time.Minute
	sw := sweepapi.New(local, sweepapi.Config{Dispatcher: d, Inflight: points})
	st, err := sw.Submit(sweepOwnedBy(t, d, srv.URL, points))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); hung.Load() < points; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d points reached the peer", hung.Load(), points)
		}
	}
	start := time.Now()
	if _, err := sw.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err = sw.Wait(ctx, st.ID)
	if err != nil || st.State != service.StateCanceled || st.Canceled != points {
		t.Fatalf("after cancel (%v): %+v err %v", time.Since(start), st, err)
	}
	if got := local.Stats()["submitted"]; got != 0 {
		t.Fatalf("canceled points reached the local queue: %d submissions", got)
	}
	// A canceled point is neither a peer's failure nor a fallback.
	if out := exposition(t, local.Telemetry()); strings.Contains(out, `route="fallback"`) ||
		!strings.Contains(out, "nocd_dispatch_peer_errors_total 0") {
		t.Fatalf("canceled points counted as peer errors or fallbacks:\n%s", out)
	}
}

// TestPeerGoingQuietIsGivenUpOn: a peer that accepts the job and then stops
// answering costs one long-poll and one status read, then the point falls
// back.
func TestPeerGoingQuietIsGivenUpOn(t *testing.T) {
	accept := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(nocdclient.Job{ID: "j1", State: nocdclient.StateQueued})
	})
	srv, hung := hungPeer(t, func(r *http.Request) bool { return r.Method == http.MethodGet }, accept)
	reg := telemetry.NewRegistry()
	d, err := New(Config{Self: "http://self", Peers: []string{srv.URL}, Replicas: 1,
		Retry: fastRetry(), Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	d.answerBound, d.pollBound = 100*time.Millisecond, 200*time.Millisecond
	req, key := keyOwnedBy(t, d.Ring(), srv.URL)
	start := time.Now()
	_, route, err := d.Dispatch(context.Background(), key, req)
	took := time.Since(start)
	if err != nil || route != service.RouteFallback {
		t.Fatalf("route %q err %v, want fallback", route, err)
	}
	if took < 300*time.Millisecond || took > 3*time.Second {
		t.Fatalf("gave up after %v, want pollBound + answerBound = 300ms", took)
	}
	if hung.Load() != 2 {
		t.Fatalf("%d reads reached the quiet peer, want the long-poll and one status read", hung.Load())
	}
	if !strings.Contains(exposition(t, reg), "nocd_dispatch_peer_errors_total 1") {
		t.Fatal("the quiet peer was not counted once")
	}
}

// TestBusyPeerIsNotAbandoned: a job that outlasts many long-polls is still
// served by its owner, because the owner keeps answering status reads.
func TestBusyPeerIsNotAbandoned(t *testing.T) {
	srv, peerSvc := peerServer(t)
	d, err := New(Config{Self: "http://self", Peers: []string{srv.URL}, Replicas: 1, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	d.pollBound = 5 * time.Millisecond
	req, _ := keyOwnedBy(t, d.Ring(), srv.URL)
	req.Topology, req.Measure = "mesh8x8", 20000 // tens of long-polls long
	req, key, _, err := service.Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.remote(context.Background(), srv.URL, key, req)
	if err != nil || res.PacketsDelivered == 0 {
		t.Fatalf("err %v, %d packets delivered; want the owner's result", err, res.PacketsDelivered)
	}
	if got := peerSvc.Stats()["completed"]; got != 1 {
		t.Fatalf("peer completed %d jobs, want 1", got)
	}
}
