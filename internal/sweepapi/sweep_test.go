package sweepapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"pseudocircuit/internal/service"
	"pseudocircuit/internal/store"
	"pseudocircuit/noc"
)

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func newSvc(t *testing.T, cfg service.Config) *service.Manager {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	m := service.New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func waitSweep(t *testing.T, sw *Manager, id string) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := sw.Wait(ctx, id)
	if err != nil {
		t.Fatalf("sweep %s did not finish: %v (state %s %d/%d)", id, err, st.State, st.Completed, st.Points)
	}
	return st
}

const sweepBody = `{
  "template": {"topology":"mesh4x4","scheme":"baseline","va":"static",
               "warmup":50,"measure":200,
               "workload":{"pattern":"uniform","rate":0.1}},
  "axes": {"scheme": ["baseline","pseudo"], "seed": [1,2,3]}}`

// TestParseExpansionOrder: axes sorted by name, last axis fastest, every
// point canonicalized onto the exact key a direct submission would use.
func TestParseExpansionOrder(t *testing.T) {
	plan, err := Parse([]byte(sweepBody), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(plan.Points))
	}
	i := 0
	for _, scheme := range []string{"baseline", "pseudo"} {
		for _, seed := range []uint64{1, 2, 3} {
			p := plan.Points[i]
			if p.Req.Scheme != scheme || p.Req.Seed != seed {
				t.Fatalf("point %d = %s/%d, want %s/%d", i, p.Req.Scheme, p.Req.Seed, scheme, seed)
			}
			_, key, _, err := service.Canonicalize(p.Req)
			if err != nil {
				t.Fatal(err)
			}
			if key != p.Key {
				t.Fatalf("point %d key %s does not round-trip canonicalization (%s)", i, p.Key, key)
			}
			i++
		}
	}
	// Same request parses to the same plan: expansion is deterministic.
	plan2, err := Parse([]byte(sweepBody), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan.Points {
		if plan.Points[i].Key != plan2.Points[i].Key {
			t.Fatalf("point %d key differs across parses", i)
		}
	}
}

// TestParseRejects: every malformed grid is an explicit ErrBadRequest.
func TestParseRejects(t *testing.T) {
	tmpl := `{"topology":"mesh4x4","scheme":"baseline","va":"static","warmup":10,"measure":50,"workload":{"pattern":"uniform","rate":0.1}}`
	cases := []struct {
		name string
		body string
	}{
		{"empty", ``},
		{"not json", `{"template"`},
		{"trailing data", `{"template":` + tmpl + `} {"x":1}`},
		{"unknown top-level field", `{"template":` + tmpl + `,"points":5}`},
		{"missing template", `{"axes":{"seed":[1]}}`},
		{"null template", `{"template":null,"axes":{"seed":[1]}}`},
		{"template unknown field", `{"template":{"topology":"mesh4x4","bogus":1}}`},
		{"template names workers", `{"template":{"topology":"mesh4x4","scheme":"baseline","workers":2,"workload":{"rate":0.1}}}`},
		{"axes not object", `{"template":` + tmpl + `,"axes":[1,2]}`},
		{"unknown axis", `{"template":` + tmpl + `,"axes":{"speed":[1]}}`},
		{"duplicate axis", `{"template":` + tmpl + `,"axes":{"seed":[1],"seed":[2]}}`},
		{"empty axis", `{"template":` + tmpl + `,"axes":{"seed":[]}}`},
		{"wrong type string", `{"template":` + tmpl + `,"axes":{"seed":["one"]}}`},
		{"wrong type number", `{"template":` + tmpl + `,"axes":{"scheme":[1]}}`},
		{"nested value", `{"template":` + tmpl + `,"axes":{"seed":[[1]]}}`},
		{"null value", `{"template":` + tmpl + `,"axes":{"seed":[null]}}`},
		{"negative seed", `{"template":` + tmpl + `,"axes":{"seed":[-1]}}`},
		{"float seed", `{"template":` + tmpl + `,"axes":{"seed":[1.5]}}`},
		{"bad scheme value", `{"template":` + tmpl + `,"axes":{"scheme":["warp"]}}`},
		{"bad rate value", `{"template":` + tmpl + `,"axes":{"rate":[2.5]}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.body), 0)
			if !errors.Is(err, service.ErrBadRequest) {
				t.Fatalf("err = %v, want ErrBadRequest", err)
			}
		})
	}
}

// TestParseBoundsExpansion: a grid over the limit is rejected outright, and
// the running-product guard cannot be overflowed into acceptance.
func TestParseBoundsExpansion(t *testing.T) {
	tmpl := `{"topology":"mesh4x4","scheme":"baseline","va":"static","warmup":10,"measure":50,"workload":{"pattern":"uniform","rate":0.1}}`
	seeds := ""
	for i := 0; i < 100; i++ {
		if i > 0 {
			seeds += ","
		}
		seeds += fmt.Sprint(i)
	}
	body := `{"template":` + tmpl + `,"axes":{"seed":[` + seeds + `],"warmup":[` + seeds + `]}}`
	if _, err := Parse([]byte(body), 4096); !errors.Is(err, service.ErrBadRequest) {
		t.Fatalf("10000-point grid: err = %v, want ErrBadRequest", err)
	}
	if plan, err := Parse([]byte(body), 10000); err != nil || len(plan.Points) != 10000 {
		t.Fatalf("10000-point grid under a 10000 limit: %v", err)
	}
	// Template-only sweeps are one point.
	plan, err := Parse([]byte(`{"template":`+tmpl+`}`), 0)
	if err != nil || len(plan.Points) != 1 {
		t.Fatalf("template-only sweep: plan %v err %v", plan, err)
	}
}

// TestSweepRunsAllPoints: every grid point completes with a result
// bit-identical to submitting the same canonical spec directly.
func TestSweepRunsAllPoints(t *testing.T) {
	svc := newSvc(t, service.Config{})
	sw := New(svc, Config{Inflight: 3})
	st, err := sw.Submit([]byte(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	st = waitSweep(t, sw, st.ID)
	if st.State != "done" || st.Done != 6 || st.Failed != 0 || st.Canceled != 0 {
		t.Fatalf("sweep finished %+v", st)
	}

	pts, cursor, _, ok := sw.PointsSince(st.ID, 0)
	if !ok || cursor != 6 || len(pts) != 6 {
		t.Fatalf("PointsSince: ok %v cursor %d len %d", ok, cursor, len(pts))
	}
	for _, p := range pts {
		if p.State != "done" || p.Result == nil {
			t.Fatalf("point %d: %+v", p.Index, p)
		}
		j, err := svc.Submit(p.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if !j.CacheHit || j.Key != p.Key {
			t.Fatalf("point %d: direct submission missed the sweep's cache entry (hit %v key %s vs %s)",
				p.Index, j.CacheHit, j.Key, p.Key)
		}
		if j.Result != p.Result {
			t.Fatalf("point %d keeps its own copy of the key's result", p.Index)
		}
	}
	// Incremental cursor: nothing new after the end.
	pts, cursor, fin, _ := sw.PointsSince(st.ID, cursor)
	if len(pts) != 0 || cursor != 6 || !fin.Terminal() {
		t.Fatalf("tail read: %d points, cursor %d, state %s", len(pts), cursor, fin.State)
	}
}

// TestSweepStreamIncremental: the PointsSince cursor observes points in
// publication order with no duplicates and no gaps while the sweep runs.
func TestSweepStreamIncremental(t *testing.T) {
	svc := newSvc(t, service.Config{Workers: 2})
	sw := New(svc, Config{Inflight: 2})
	st, err := sw.Submit([]byte(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	cursor := 0
	deadline := time.Now().Add(60 * time.Second)
	for {
		pts, next, s, ok := sw.PointsSince(st.ID, cursor)
		if !ok {
			t.Fatal("sweep vanished mid-stream")
		}
		for _, p := range pts {
			if seen[p.Index] {
				t.Fatalf("point %d streamed twice", p.Index)
			}
			seen[p.Index] = true
		}
		cursor = next
		if s.Terminal() && cursor == s.Points {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream stalled at %d/%d", cursor, s.Points)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(seen) != 6 {
		t.Fatalf("streamed %d points, want 6", len(seen))
	}
}

// TestSweepCancel: cancelling a running sweep stops feeding, cancels
// in-flight points, and lands the sweep in the canceled state.
func TestSweepCancel(t *testing.T) {
	svc := newSvc(t, service.Config{Workers: 1})
	sw := New(svc, Config{Inflight: 2})
	body := `{
	  "template": {"topology":"mesh8x8","scheme":"pseudo","va":"static",
	               "warmup":100,"measure":20000,
	               "workload":{"pattern":"uniform","rate":0.05}},
	  "axes": {"seed": [1,2,3,4,5,6,7,8]}}`
	st, err := sw.Submit([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	st = waitSweep(t, sw, st.ID)
	if st.State != "canceled" {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if st.Canceled == 0 {
		t.Fatalf("no points were canceled: %+v", st)
	}
	if st.Done+st.Failed+st.Canceled != st.Points || st.Completed != st.Points {
		t.Fatalf("point accounting does not close: %+v", st)
	}
	if _, err := sw.Cancel(st.ID); err != nil {
		t.Fatalf("cancel of a terminal sweep: %v", err)
	}
	if _, err := sw.Cancel("nope"); !errors.Is(err, ErrUnknownSweep) {
		t.Fatalf("unknown sweep cancel: %v", err)
	}
}

// remoteDispatcher serves every point from a peer service manager, the way
// cluster dispatch does, so the local manager must not simulate at all.
type remoteDispatcher struct {
	peer *service.Manager
}

func (d *remoteDispatcher) Dispatch(ctx context.Context, key string, req service.Request) (noc.Result, string, error) {
	j, err := d.peer.Submit(req)
	if err != nil {
		return noc.Result{}, service.RouteFallback, err
	}
	if !j.State.Terminal() {
		if j, err = d.peer.Wait(ctx, j.ID); err != nil {
			return noc.Result{}, service.RouteFallback, err
		}
	}
	if j.State != service.StateDone {
		return noc.Result{}, service.RouteRemote, errors.New(j.Error)
	}
	return *j.Result, service.RouteRemote, nil
}

// TestSweepDispatcherRemote: with a dispatcher resolving every point
// remotely, the local service simulates zero cycles and the sweep's results
// are bit-identical to the peer's.
func TestSweepDispatcherRemote(t *testing.T) {
	local := newSvc(t, service.Config{})
	peer := newSvc(t, service.Config{})
	sw := New(local, Config{Dispatcher: &remoteDispatcher{peer: peer}})
	st, err := sw.Submit([]byte(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	st = waitSweep(t, sw, st.ID)
	if st.State != "done" || st.Done != 6 || st.Remote != 6 {
		t.Fatalf("sweep finished %+v", st)
	}
	if got := local.Stats()["submitted"]; got != 0 {
		t.Fatalf("local manager saw %d submissions; want 0 (all remote)", got)
	}
	if got := local.Stats()["jobs"]; got != 0 {
		t.Fatalf("local manager keeps %d job records for remote points", got)
	}
	own := map[*service.Record]bool{}
	for _, r := range records(sw, st.ID) {
		own[r.rec] = true
	}
	if len(own) != 6 {
		t.Fatalf("6 remote points share %d records, want one each", len(own))
	}
	pts, _, _, _ := sw.PointsSince(st.ID, 0)
	for _, p := range pts {
		if p.Source != service.RouteRemote {
			t.Fatalf("point %d source %q", p.Index, p.Source)
		}
		j, err := peer.Submit(p.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if !j.CacheHit || mustJSON(t, *j.Result) != mustJSON(t, *p.Result) {
			t.Fatalf("point %d diverged from the peer's cached result", p.Index)
		}
	}
}

// records returns a sweep's points as it keeps them.
func records(sw *Manager, id string) []point {
	s := sw.lookup(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]point(nil), s.points...)
}

// waitStats polls svc until ok accepts its counters.
func waitStats(t *testing.T, svc *service.Manager, ok func(map[string]int64) bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !ok(svc.Stats()); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("service never reached the state: %v", svc.Stats())
		}
	}
}

// TestSweepPointIsItsJob: a finished point is a view of the terminal job
// record that answered it, not a copy. A sweep with a memory hit, a store
// hit, a cold point and a point that joins it in flight reports, for each,
// the key, spec, hit marks and result of the service's record, and the
// joined point is the cold point's record, unmarked by the join. A point
// canceled before it was fed still reports its index, key and spec.
func TestSweepPointIsItsJob(t *testing.T) {
	svc := newSvc(t, service.Config{Workers: 1, CacheCap: 2, Store: openStore(t)})
	sw := New(svc, Config{Inflight: 4})
	body := func(seeds string) []byte {
		return []byte(`{"template": {"topology":"mesh4x4","scheme":"pseudo","va":"static",
		  "warmup":50,"measure":200,"workload":{"pattern":"uniform","rate":0.1}},
		  "axes": {"seed": [` + seeds + `]}}`)
	}
	run := func(seeds string) Status {
		st, err := sw.Submit(body(seeds))
		if err != nil {
			t.Fatal(err)
		}
		return waitSweep(t, sw, st.ID)
	}
	// Memory keeps the last two results: 11 and 13, not 10.
	for _, seed := range []string{"10", "13", "11"} {
		if st := run(seed); st.Done != 1 || st.CacheHits != 0 {
			t.Fatalf("warm-up point %s: %+v", seed, st)
		}
	}
	// A job on the only worker holds the cold point queued until its twin
	// has joined it.
	blocker := service.Request{Spec: noc.Spec{Topology: "mesh4x4", Warmup: 100, Measure: 8_000_000},
		Workload: noc.WorkloadSpec{Rate: 0.1}}
	bj, err := svc.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sw.Submit(body("11, 10, 12, 12"))
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, svc, func(c map[string]int64) bool { return c["dedup_hits"] == 1 && c["cache_hits"] == 2 })
	if _, err := svc.Cancel(bj.ID); err != nil {
		t.Fatal(err)
	}
	if st = waitSweep(t, sw, st.ID); st.Done != 4 || st.CacheHits != 2 || st.StoreHits != 1 {
		t.Fatalf("sweep finished %+v", st)
	}

	recs := records(sw, st.ID)
	pts, _, _, _ := sw.PointsSince(st.ID, 0)
	for _, p := range pts {
		r := recs[p.Index].rec.Job()
		j, ok := svc.Get(r.ID)
		if !ok || j.Key != p.Key || mustJSON(t, j.Request) != mustJSON(t, p.Spec) ||
			j.CacheHit != p.CacheHit || j.StoreHit != p.StoreHit || j.Result != p.Result || p.Result == nil {
			t.Errorf("point %d is not its job record:\npoint %+v\nrecord %+v", p.Index, p, j)
		}
		if j.Dedup || r.Dedup {
			t.Errorf("point %d marked its shared record dedup", p.Index)
		}
	}
	want := []struct{ cacheHit, storeHit bool }{{true, false}, {true, true}, {false, false}, {false, false}}
	for i, w := range want {
		if r := recs[i].rec.Job(); r.CacheHit != w.cacheHit || r.StoreHit != w.storeHit {
			t.Errorf("point %d: cacheHit %v storeHit %v, want %v %v", i, r.CacheHit, r.StoreHit, w.cacheHit, w.storeHit)
		}
	}
	if recs[2].rec != recs[3].rec {
		t.Error("the point that joined an identical one in flight keeps a record of its own")
	}

	// Canceled while its first point waits behind a blocker: the rest are
	// never fed, and have no job record to be a view of.
	if bj, err = svc.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	defer svc.Cancel(bj.ID)
	sw1 := New(svc, Config{Inflight: 1})
	st, err = sw1.Submit(body("20, 21, 22"))
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, svc, func(c map[string]int64) bool { return c["running"] == 1 && c["queue_len"] == 1 })
	sw1.Cancel(st.ID)
	st = waitSweep(t, sw1, st.ID)
	plan, err := Parse(body("20, 21, 22"), 0)
	if err != nil {
		t.Fatal(err)
	}
	pts, _, _, _ = sw1.PointsSince(st.ID, 0)
	if len(pts) != 3 {
		t.Fatalf("%d points of 3 reported", len(pts))
	}
	for _, p := range pts {
		pp := plan.Points[p.Index]
		if p.State != service.StateCanceled || p.Key != pp.Key || mustJSON(t, p.Spec) != mustJSON(t, pp.Req) {
			t.Errorf("canceled point %d: %+v", p.Index, p)
		}
		if fed := p.Index == 0; (p.Source != "") != fed {
			t.Errorf("point %d: source %q", p.Index, p.Source)
		}
	}
}

// TestSweepSubmitRejects: Submit maps grid errors to ErrBadRequest without
// creating a sweep record.
func TestSweepSubmitRejects(t *testing.T) {
	svc := newSvc(t, service.Config{})
	sw := New(svc, Config{})
	if _, err := sw.Submit([]byte(`{"template":{"topology":"nope"}}`)); !errors.Is(err, service.ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
	if got := len(sw.Sweeps()); got != 0 {
		t.Fatalf("rejected sweep left %d records", got)
	}
	if _, ok := sw.Get("s1"); ok {
		t.Fatal("rejected sweep is queryable")
	}
}

// TestSweepShutdown: Shutdown refuses new sweeps and drains active ones.
func TestSweepShutdown(t *testing.T) {
	svc := newSvc(t, service.Config{})
	sw := New(svc, Config{})
	st, err := sw.Submit([]byte(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sw.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Submit([]byte(sweepBody)); !errors.Is(err, service.ErrShuttingDown) {
		t.Fatalf("submit after shutdown: %v", err)
	}
	fin, ok := sw.Get(st.ID)
	if !ok || !fin.Terminal() {
		t.Fatalf("sweep not drained by shutdown: %+v", fin)
	}
}

// TestAxisIsARequestField: an axis value is decoded by the field it sets,
// so it is typed and ranged exactly as that field of a POST /jobs body is,
// and only the scalar model parameters can be swept.
func TestAxisIsARequestField(t *testing.T) {
	tmpl := `{"topology":"mesh4x4","scheme":"baseline","va":"static","warmup":10,"measure":50,"workload":{"pattern":"uniform","rate":0.1}}`
	for name, axes := range map[string]string{
		"float in an int field":   `{"numVCs":[1.5]}`,
		"string in seed":          `{"seed":["7"]}`,
		"seed past uint64":        `{"seed":[18446744073709551616]}`,
		"number in a string":      `{"topology":[8]}`,
		"null value":              `{"scheme":[null]}`,
		"bool value":              `{"numVCs":[true]}`,
		"list value":              `{"numVCs":[[1]]}`,
		"object value":            `{"numVCs":[{}]}`,
		"useEVC is not an axis":   `{"useEVC":[true]}`,
		"workers is not an axis":  `{"workers":[2]}`,
		"faults is not an axis":   `{"faults":[{"events":[]}]}`,
		"workload is not an axis": `{"workload":[{"rate":0.2}]}`,
		"kind is not an axis":     `{"kind":["cmp"]}`,
		"packetSize over bound":   `{"packetSize":[1025]}`,
		"numVCs over bound":       `{"numVCs":[65]}`,
		"negative measure":        `{"measure":[-5]}`,
	} {
		_, err := Parse([]byte(`{"template":`+tmpl+`,"axes":`+axes+`}`), 0)
		if !errors.Is(err, service.ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}

	// Every name on the closed list sets its field, on the spec or on the
	// workload; the full uint64 seed range survives.
	plan, err := Parse([]byte(`{"template":`+tmpl+`,"axes":{
		"topology":["mesh4x2"],"scheme":["pseudo+s"],"routing":["yx"],"va":["dynamic"],"staticKey":["flow"],
		"numVCs":[8],"bufDepth":[2],"seed":[18446744073709551615],"warmup":[20],"measure":[60],
		"pattern":["bitcomp"],"rate":[0.25],"packetSize":[3]}}`), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := service.Request{
		Spec: noc.Spec{Topology: "mesh4x2", Scheme: "pseudo+s", Routing: "yx", VA: "dynamic", StaticKey: "flow",
			NumVCs: 8, BufDepth: 2, Seed: 18446744073709551615, Warmup: 20, Measure: 60},
		Workload: noc.WorkloadSpec{Kind: "synthetic", Pattern: "bitcomp", Rate: 0.25, PacketSize: 3},
	}
	if len(plan.Points) != 1 || plan.Points[0].Req != want {
		t.Errorf("thirteen axes gave %+v, want %+v", plan.Points, want)
	}
	plan, err = Parse([]byte(`{"template":{"topology":"cmesh4x4x4","scheme":"pseudo","workload":{"kind":"cmp","benchmark":"fft"}},
		"axes":{"benchmark":["fma3d","specjbb"]}}`), 0)
	if err != nil || len(plan.Points) != 2 || plan.Points[1].Req.Workload.Benchmark != "specjbb" {
		t.Errorf("benchmark axis: plan %+v, err %v", plan, err)
	}
	if len(axisFields) != 14 {
		t.Errorf("%d axis names; a new one needs a row above", len(axisFields))
	}
}
