package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pseudocircuit/internal/service"
	"pseudocircuit/internal/telemetry"
	"pseudocircuit/noc"
	"pseudocircuit/nocdclient"
)

// peerServer is a minimal nocd-compatible daemon: POST /jobs and GET
// /jobs/{id} (each with ?wait=1) backed by a real service.Manager, enough
// surface for the dispatcher's client.
func peerServer(t *testing.T) (*httptest.Server, *service.Manager) {
	t.Helper()
	m := service.New(service.Config{Workers: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		req, err := service.DecodeRequest(body)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
		j, err := m.Submit(req)
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
			return
		}
		if r.URL.Query().Get("wait") != "" && !j.State.Terminal() {
			if j, err = m.Wait(r.Context(), j.ID); err != nil {
				w.WriteHeader(http.StatusInternalServerError)
				json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
				return
			}
		}
		json.NewEncoder(w).Encode(j)
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if ok && r.URL.Query().Get("wait") != "" {
			j, _ = m.Wait(r.Context(), j.ID)
		}
		if !ok {
			w.WriteHeader(http.StatusNotFound)
		}
		json.NewEncoder(w).Encode(j)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, m
}

func dispatchReq(seed uint64) (service.Request, string) {
	req := service.Request{
		Spec: noc.Spec{
			Topology: "mesh4x4", Scheme: "pseudo", VA: "static",
			Warmup: 50, Measure: 200, Seed: seed,
		},
		Workload: noc.WorkloadSpec{Pattern: "uniform", Rate: 0.10},
	}
	canon, key, _, err := service.Canonicalize(req)
	if err != nil {
		panic(err)
	}
	return canon, key
}

// keyOwnedBy scans seeds for a spec whose primary owner is the wanted
// member — deterministic, so tests can steer keys at specific nodes.
func keyOwnedBy(t *testing.T, r *Ring, want string) (service.Request, string) {
	t.Helper()
	for seed := uint64(1); seed < 4096; seed++ {
		req, key := dispatchReq(seed)
		if r.Owners(key, 1)[0] == want {
			return req, key
		}
	}
	t.Fatalf("no seed under 4096 hashes to %s", want)
	panic("unreachable")
}

func fastRetry() nocdclient.RetryPolicy {
	return nocdclient.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
}

// TestDispatchSelfOwned: a key this node owns routes local without touching
// the network.
func TestDispatchSelfOwned(t *testing.T) {
	reg := telemetry.NewRegistry()
	d, err := New(Config{Self: "http://self", Peers: []string{"http://unreachable.invalid"},
		Retry: fastRetry(), Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	req, key := keyOwnedBy(t, d.Ring(), "http://self")
	_, route, err := d.Dispatch(context.Background(), key, req)
	if err != nil || route != service.RouteLocal {
		t.Fatalf("route %q err %v, want local", route, err)
	}
	if out := exposition(t, reg); !strings.Contains(out, `nocd_dispatch_total{route="local"} 1`) {
		t.Fatalf("metrics lack the local route:\n%s", out)
	}
}

// TestDispatchRemote: a peer-owned key is simulated on the peer and the
// returned result is bit-identical to a direct local run of the same spec.
func TestDispatchRemote(t *testing.T) {
	srv, peerSvc := peerServer(t)
	reg := telemetry.NewRegistry()
	spans := telemetry.NewSpanLog(16)
	d, err := New(Config{Self: "http://self", Peers: []string{srv.URL},
		Retry: fastRetry(), Telemetry: reg, Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	req, key := keyOwnedBy(t, d.Ring(), srv.URL)
	res, route, err := d.Dispatch(context.Background(), key, req)
	if err != nil || route != service.RouteRemote {
		t.Fatalf("route %q err %v, want remote", route, err)
	}

	exp, err := req.Spec.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	want := exp.RunSynthetic(noc.Synthetic{Pattern: noc.UniformRandom, Rate: req.Workload.Rate})
	got, _ := json.Marshal(res)
	wantB, _ := json.Marshal(want)
	if string(got) != string(wantB) {
		t.Fatalf("remote result diverged from direct run:\nremote: %s\ndirect: %s", got, wantB)
	}
	if peerSvc.Stats()["completed"] != 1 {
		t.Fatalf("peer completed %d jobs, want 1", peerSvc.Stats()["completed"])
	}
	if out := exposition(t, reg); !strings.Contains(out, `nocd_dispatch_total{route="remote"} 1`) {
		t.Fatalf("dispatch counter missing:\n%s", out)
	}
}

// TestDispatchFallback: with every responsible peer unreachable, the point
// falls back to local execution instead of failing the sweep.
func TestDispatchFallback(t *testing.T) {
	srv, _ := peerServer(t)
	url := srv.URL
	srv.Close() // peer is in the ring but down
	reg := telemetry.NewRegistry()
	d, err := New(Config{Self: "http://self", Peers: []string{url},
		Replicas: 1, Retry: fastRetry(), Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	req, key := keyOwnedBy(t, d.Ring(), url)
	_, route, err := d.Dispatch(context.Background(), key, req)
	if err != nil || route != service.RouteFallback {
		t.Fatalf("route %q err %v, want fallback", route, err)
	}
	out := exposition(t, reg)
	if !strings.Contains(out, `nocd_dispatch_total{route="fallback"} 1`) ||
		!strings.Contains(out, "nocd_dispatch_peer_errors_total 1") {
		t.Fatalf("fallback counters missing:\n%s", out)
	}
}

// TestDispatchReplicaFailover: with the primary down and a healthy second
// replica, the point lands on the replica, not on local fallback.
func TestDispatchReplicaFailover(t *testing.T) {
	srv, peerSvc := peerServer(t)
	dead, _ := peerServer(t)
	deadURL := dead.URL
	dead.Close()
	d, err := New(Config{Self: "http://self", Peers: []string{srv.URL, deadURL},
		Replicas: 3, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	// A key whose primary is the dead peer; with three replicas over three
	// members, the live peer and self are both consulted after it.
	req, key := keyOwnedBy(t, d.Ring(), deadURL)
	owners := d.Ring().Owners(key, 3)
	_, route, err := d.Dispatch(context.Background(), key, req)
	if err != nil {
		t.Fatal(err)
	}
	// The live peer precedes self in ring order for some keys and follows it
	// for others; both outcomes are correct — what may not happen is a
	// failure or a fallback that skipped a live replica before self.
	switch route {
	case service.RouteRemote:
		if peerSvc.Stats()["completed"] != 1 {
			t.Fatalf("remote route but peer completed %d", peerSvc.Stats()["completed"])
		}
	case service.RouteLocal:
		if owners[1] != "http://self" {
			t.Fatalf("local route but self is not the second replica: %v", owners)
		}
	default:
		t.Fatalf("route %q (owners %v)", route, owners)
	}
}

// TestDispatchUnusablePeerAnswers: a peer whose job failed, or that calls
// a job done without a result, has not answered the point: the dispatcher
// records why on the span and falls back to a local run. A dispatcher
// without its own address is refused.
func TestDispatchUnusablePeerAnswers(t *testing.T) {
	if _, err := New(Config{Peers: []string{"http://peer"}}); err == nil {
		t.Error("New without Self: no error")
	}
	for _, c := range []struct{ outcome, job string }{
		{"failed", `{"id":"j1","state":"failed","error":"simulation panic"}`},
		{"error", `{"id":"j1","state":"done"}`},
		{"error", `not a job`},
	} {
		outcome, job := c.outcome, c.job
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, job)
		}))
		spans := telemetry.NewSpanLog(4)
		d, err := New(Config{Self: "http://self", Peers: []string{srv.URL}, Replicas: 1, Retry: fastRetry(), Spans: spans})
		if err != nil {
			t.Fatal(err)
		}
		req, key := keyOwnedBy(t, d.Ring(), srv.URL)
		if _, route, err := d.Dispatch(context.Background(), key, req); err != nil || route != service.RouteFallback {
			t.Errorf("peer answering %s: route %q, err %v; want fallback", job, route, err)
		}
		if got := spans.Spans(); len(got) != 1 || got[0].Outcome != outcome {
			t.Errorf("peer answering %s: spans %+v, want one with outcome %q", job, got, outcome)
		}
		srv.Close()
	}
}

// TestDispatchBadRequestPropagates: a deterministic 4xx from the owner is
// returned to the caller, not retried on other replicas.
func TestDispatchBadRequestPropagates(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "bad spec"})
	}))
	defer srv.Close()
	d, err := New(Config{Self: "http://self", Peers: []string{srv.URL}, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	req, key := keyOwnedBy(t, d.Ring(), srv.URL)
	_, _, err = d.Dispatch(context.Background(), key, req)
	var apiErr *nocdclient.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want propagated 400", err)
	}
}
