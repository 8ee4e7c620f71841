package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pseudocircuit/internal/service"
	"pseudocircuit/internal/store"
	"pseudocircuit/internal/sweepapi"
	"pseudocircuit/noc"
)

var update = flag.Bool("update", false, "rewrite testdata/record_wire.json from the current tree")

// wireReq is a fast mesh point; seed picks the key.
func wireReq(seed uint64) service.Request {
	return service.Request{
		Spec: noc.Spec{
			Topology: "mesh4x4", Scheme: "pseudo+s+b", VA: "static",
			Warmup: 50, Measure: 200, Seed: seed,
		},
		Workload: noc.WorkloadSpec{Pattern: "uniform", Rate: 0.10},
	}
}

// peerStub is a fleet that answers one seed with a result of its own and
// refuses every other key.
type peerStub struct {
	seed uint64
	res  noc.Result
}

func (p peerStub) Dispatch(_ context.Context, _ string, req service.Request) (noc.Result, string, error) {
	if req.Seed == p.seed {
		return p.res, service.RouteRemote, nil
	}
	return noc.Result{}, service.RouteRemote, errors.New("peer refused")
}

// TestRecordWireStable pins what the wire shows of every kind of record: a
// cold job, a memory hit, a store hit, an in-flight dedup, a job cancelled
// while queued, a running job cancelled, a failed job, and sweep points
// answered from memory, by a peer and by no one. The JSON of Get, Jobs,
// Submit, Cancel and PointsSince, with wall-clock fields masked, must equal
// testdata/record_wire.json byte for byte; -update rewrites it.
func TestRecordWireStable(t *testing.T) {
	st, err := store.Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	m := service.New(service.Config{Workers: 1, CacheCap: 1, Store: st})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	wait := func(id string) service.Job {
		t.Helper()
		j, err := m.Wait(ctx, id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		return j
	}
	submit := func(r service.Request) service.Job {
		t.Helper()
		j, err := m.Submit(r)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	waitRunning := func(id string) {
		t.Helper()
		for j, _ := m.Get(id); j.State != service.StateRunning; j, _ = m.Get(id) {
			if j.State.Terminal() {
				t.Fatalf("job %s ended before it was cancelled: %+v", id, j)
			}
			time.Sleep(time.Millisecond)
		}
	}

	var replies []service.Job // what Submit and Cancel answered, in order
	cold := wait(submit(wireReq(1)).ID)
	replies = append(replies, submit(wireReq(1))) // memory hit
	wait(submit(wireReq(2)).ID)                   // evicts seed 1 from memory
	replies = append(replies, submit(wireReq(1))) // store hit
	wait(service.FailJob(m))

	long := func(seed uint64) service.Request {
		r := wireReq(seed)
		r.Warmup, r.Measure = 1000, 8_000_000
		return r
	}
	blocker := submit(long(8))
	waitRunning(blocker.ID)
	queued := submit(long(7))
	replies = append(replies, submit(long(7))) // joins the queued job
	c, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	replies = append(replies, c)
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	wait(queued.ID)
	wait(blocker.ID)

	sw := sweepapi.New(m, sweepapi.Config{Inflight: 1, Dispatcher: peerStub{seed: 4, res: *cold.Result}})
	body := `{"template":{"topology":"mesh4x4","scheme":"pseudo+s+b","va":"static","warmup":50,"measure":200,
		"workload":{"pattern":"uniform","rate":0.1}},"axes":{"seed":[1,3,4]}}`
	s, err := sw.Submit([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Wait(ctx, s.ID); err != nil {
		t.Fatal(err)
	}
	points, _, status, _ := sw.PointsSince(s.ID, 0)
	status.ElapsedMS = 0
	defer sw.Shutdown(ctx)

	mask := func(j service.Job) service.Job {
		j.QueueWaitMS, j.RunMS, j.CyclesPerSec, j.ETASeconds = 0, 0, 0, 0
		if j.ID == blocker.ID {
			j.CyclesDone = 0 // how far it ran before the cancel landed
		}
		return j
	}
	var got struct {
		Get     []service.Job
		Jobs    []service.Job
		Replies []service.Job
		Points  []sweepapi.PointStatus
		Sweep   sweepapi.Status
	}
	for _, j := range m.Jobs() {
		g, ok := m.Get(j.ID)
		if !ok {
			t.Fatalf("Jobs lists %s, Get does not know it", j.ID)
		}
		got.Get = append(got.Get, mask(g))
		got.Jobs = append(got.Jobs, mask(j))
	}
	for _, j := range replies {
		got.Replies = append(got.Replies, mask(j))
	}
	got.Points, got.Sweep = points, status
	enc, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	path := filepath.Join("testdata", "record_wire.json")
	if *update {
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != string(want) {
		t.Fatalf("the wire view of the records moved; got\n%s", enc)
	}
}
