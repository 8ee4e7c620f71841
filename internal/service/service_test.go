package service

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"testing"
	"time"

	"pseudocircuit/noc"
)

// smallReq is a fast grid point (a Fig. 9-style mesh at low load).
func smallReq() Request {
	return Request{
		Spec: noc.Spec{
			Topology: "mesh4x4",
			Scheme:   "pseudo+s+b",
			VA:       "static",
			Warmup:   100,
			Measure:  400,
		},
		Workload: noc.WorkloadSpec{Pattern: "uniform", Rate: 0.10},
	}
}

// longReq is a job big enough to still be running when the test reacts to
// it (cancellation stops it at a chunk boundary long before completion).
func longReq(seed uint64) Request {
	r := smallReq()
	r.Spec.Seed = seed
	r.Spec.Warmup = 1000
	r.Spec.Measure = 8_000_000
	return r
}

func waitState(t *testing.T, m *Manager, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if j.State == want {
			return j
		}
		if j.State.Terminal() {
			t.Fatalf("job %s reached terminal state %s, want %s (err %q)", id, j.State, want, j.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
	return Job{}
}

func shutdown(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestCacheMatchesCLIRun: the cached result is bit-identical to running the
// same spec directly through the public API (what the CLI does).
func TestCacheMatchesCLIRun(t *testing.T) {
	m := New(Config{Workers: 1})
	defer shutdown(t, m)

	j, err := m.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if j, err = m.Wait(ctx, j.ID); err != nil || j.State != StateDone {
		t.Fatalf("state %s err %v", j.State, err)
	}

	exp, err := smallReq().Spec.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	want := exp.RunSynthetic(noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.10})
	got, wantB := mustJSON(t, *j.Result), mustJSON(t, want)
	if got != wantB {
		t.Fatalf("service result diverged from direct run:\nservice: %s\ndirect:  %s", got, wantB)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDedupInflight: an identical submission while the first is queued or
// running joins the same job instead of enqueueing a second run.
func TestDedupInflight(t *testing.T) {
	m := New(Config{Workers: 1})

	j1, err := m.Submit(longReq(7))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(longReq(7))
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID != j1.ID {
		t.Fatalf("dedup returned a different job: %s vs %s", j2.ID, j1.ID)
	}
	if !j2.Dedup {
		t.Fatal("second submission not marked dedup")
	}
	if s := m.Stats(); s["dedup_hits"] != 1 || s["enqueued"] != 1 {
		t.Fatalf("stats = %v, want dedup_hits 1 enqueued 1", s)
	}
	if _, err := m.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if j, err := m.Wait(ctx, j1.ID); err != nil || j.State != StateCanceled {
		t.Fatalf("state %s err %v", j.State, err)
	}
	shutdown(t, m)
}

// TestCancelInflight: cancelling a running job stops it promptly (one chunk)
// and leaves the worker pool serving subsequent jobs.
func TestCancelInflight(t *testing.T) {
	m := New(Config{Workers: 1})
	defer shutdown(t, m)

	j, err := m.Submit(longReq(3))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, StateRunning)
	start := time.Now()
	if _, err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	j, err = m.Wait(ctx, j.ID)
	if err != nil || j.State != StateCanceled {
		t.Fatalf("state %s err %v (waited %v)", j.State, err, time.Since(start))
	}
	if j.CyclesDone >= j.CyclesTotal {
		t.Fatalf("cancelled job claims full run: %d/%d cycles", j.CyclesDone, j.CyclesTotal)
	}
	if j.Result != nil {
		t.Fatal("cancelled job carries a result")
	}

	// The same worker (and its pool) must keep serving.
	j2, err := m.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	j2, err = m.Wait(ctx, j2.ID)
	if err != nil || j2.State != StateDone {
		t.Fatalf("post-cancel job: state %s err %v (job err %q)", j2.State, err, j2.Error)
	}
}

// TestQueueFullBackpressure: a bounded queue rejects overflow rather than
// buffering it.
func TestQueueFullBackpressure(t *testing.T) {
	m := New(Config{Workers: 1, QueueCap: 1})

	a, err := m.Submit(longReq(11))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, a.ID, StateRunning) // worker busy, queue empty
	b, err := m.Submit(longReq(12))     // fills the queue
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(longReq(13)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission: err %v, want ErrQueueFull", err)
	}
	if s := m.Stats(); s["rejected"] != 1 {
		t.Fatalf("rejected = %d, want 1", s["rejected"])
	}

	for _, id := range []string{a.ID, b.ID} {
		if _, err := m.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	shutdown(t, m)
}

// TestCancelQueuedJob: cancelling before a worker picks the job up means it
// terminates without simulating a cycle.
func TestCancelQueuedJob(t *testing.T) {
	m := New(Config{Workers: 1, QueueCap: 2})

	a, err := m.Submit(longReq(21))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, a.ID, StateRunning)
	b, err := m.Submit(longReq(22))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	jb, err := m.Wait(ctx, b.ID)
	if err != nil || jb.State != StateCanceled {
		t.Fatalf("queued-cancel: state %s err %v", jb.State, err)
	}
	if jb.CyclesDone != 0 {
		t.Fatalf("cancelled-while-queued job simulated %d cycles", jb.CyclesDone)
	}
	shutdown(t, m)
}

// TestGracefulDrain: Shutdown lets queued work finish, then refuses new
// submissions.
func TestGracefulDrain(t *testing.T) {
	m := New(Config{Workers: 1})
	j, err := m.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	shutdown(t, m)
	got, ok := m.Get(j.ID)
	if !ok || got.State != StateDone {
		t.Fatalf("drained job state: %v (found %v)", got.State, ok)
	}
	if _, err := m.Submit(smallReq()); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown submit: err %v, want ErrShuttingDown", err)
	}
}

// TestDrainDeadlineCancels: a shutdown deadline forcibly cancels in-flight
// work instead of hanging.
func TestDrainDeadlineCancels(t *testing.T) {
	m := New(Config{Workers: 1})
	j, err := m.Submit(longReq(31))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown err %v, want DeadlineExceeded", err)
	}
	got, _ := m.Get(j.ID)
	if got.State != StateCanceled {
		t.Fatalf("in-flight job after forced drain: %s", got.State)
	}
}

// TestBadRequests: every malformed submission maps to ErrBadRequest.
func TestBadRequests(t *testing.T) {
	m := New(Config{Workers: 1})
	defer shutdown(t, m)
	cases := []Request{
		{Spec: noc.Spec{Topology: "torus4x4", Scheme: "pseudo"}, Workload: noc.WorkloadSpec{Rate: 0.1}},
		{Spec: noc.Spec{Topology: "mesh4x4", Scheme: "pseudo++"}, Workload: noc.WorkloadSpec{Rate: 0.1}},
		{Spec: noc.Spec{Topology: "mesh4x4", Scheme: "pseudo"}, Workload: noc.WorkloadSpec{Rate: -1}},
		{Spec: noc.Spec{Topology: "mesh4x4", Scheme: "pseudo"}, Workload: noc.WorkloadSpec{Kind: "cmp", Benchmark: "nope"}},
		{Spec: noc.Spec{Topology: "mesh4x4", Scheme: "pseudo", Warmup: -1}, Workload: noc.WorkloadSpec{Rate: 0.1}},
		{Spec: noc.Spec{Topology: "mesh999x999", Scheme: "pseudo"}, Workload: noc.WorkloadSpec{Rate: 0.1}},
		{Spec: noc.Spec{Topology: "mesh4x4", Scheme: "pseudo", Measure: MaxCycles + 1}, Workload: noc.WorkloadSpec{Rate: 0.1}},
		{Spec: noc.Spec{Topology: "mesh4x4", Scheme: "pseudo", UseEVC: true}, Workload: noc.WorkloadSpec{Rate: 0.1}},
	}
	for i, r := range cases {
		if _, err := m.Submit(r); !errors.Is(err, ErrBadRequest) {
			t.Errorf("case %d (%+v): err %v, want ErrBadRequest", i, r, err)
		}
	}
	if s := m.Stats(); s["submitted"] != 0 {
		t.Errorf("bad requests counted as submissions: %d", s["submitted"])
	}
	// A Go caller can hand over what JSON cannot carry; it is refused as
	// the request it is, not simulated.
	nan := smallReq()
	nan.Workload.Rate = math.NaN()
	if _, err := m.Submit(nan); !errors.Is(err, ErrBadRequest) {
		t.Errorf("NaN rate: err %v, want ErrBadRequest", err)
	}
	if _, ok := m.Done("nope"); ok {
		t.Error("Done of an unknown job reported a channel")
	}
	if _, err := m.Wait(context.Background(), "nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Wait of an unknown job: %v, want ErrUnknownJob", err)
	}
}

// TestRetentionSkipsLiveJobs: over JobsCap, the oldest finished records go
// first, wherever they sit; a job still running is kept, even at the head.
func TestRetentionSkipsLiveJobs(t *testing.T) {
	m := New(Config{Workers: 2, JobsCap: 2})
	defer shutdown(t, m)
	long, err := m.Submit(longReq(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, long.ID, StateRunning)
	short, err := m.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, short.ID, StateDone)
	hit, err := m.Submit(smallReq()) // a cache hit: a third record, done at once
	if err != nil || !hit.CacheHit {
		t.Fatalf("resubmission: %+v, %v", hit, err)
	}
	var ids []string
	for _, j := range m.Jobs() {
		ids = append(ids, j.ID)
	}
	if want := []string{long.ID, hit.ID}; !slices.Equal(ids, want) {
		t.Errorf("retained %v, want %v: the running head kept, the oldest finished record evicted", ids, want)
	}
	m.Cancel(long.ID)
}
