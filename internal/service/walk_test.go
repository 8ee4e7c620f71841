package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pseudocircuit/noc"
)

// fleetStub is a fleet tier that counts how often the walk reaches it and
// answers every key the same way.
type fleetStub struct {
	asked atomic.Int32
	route string
	res   noc.Result
	err   error
}

func (f *fleetStub) Dispatch(ctx context.Context, key string, req Request) (noc.Result, string, error) {
	f.asked.Add(1)
	return f.res, f.route, f.err
}

func do(t *testing.T, m *Manager, r Request, fleet Fleet) (Job, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rec, source, err := m.Do(ctx, r, fleet)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	j := rec.Job()
	if j.State != StateDone || j.Result == nil {
		t.Fatalf("Do: state %s", j.State)
	}
	return j, source
}

// TestWalkOrder pins the order of tiers: the memory cache and the disk
// store answer before the fleet is asked, the fleet before anything is
// simulated here, and a fleet that sends the work back gets it run here.
func TestWalkOrder(t *testing.T) {
	dir := t.TempDir()
	m := New(Config{Workers: 1, Store: openStore(t, dir)})
	peer := &fleetStub{route: RouteRemote, res: noc.Result{Cycles: 7}}

	// Everything misses: the fleet answers, nothing runs or is kept here.
	j, source := do(t, m, storeReq(1), peer)
	if source != RouteRemote || j.Result.Cycles != 7 || j.CacheHit || peer.asked.Load() != 1 {
		t.Fatalf("cold key: source %q result %+v, fleet asked %d times", source, j.Result, peer.asked.Load())
	}
	if st := m.Stats(); st["submitted"] != 0 || st["cache_size"] != 0 || m.cfg.Store.Len() != 0 {
		t.Fatalf("a peer's answer was adopted: %v, %d store entries", st, m.cfg.Store.Len())
	}
	if do(t, m, storeReq(1), peer); peer.asked.Load() != 2 {
		t.Fatalf("a repeat of a remote key asked the fleet %d times in all, want 2", peer.asked.Load())
	}

	// The fleet hands the key back (owner, or no peer answered): run here.
	for _, route := range []string{RouteLocal, RouteFallback} {
		home := &fleetStub{route: route}
		seed := uint64(len(route))
		j, source = do(t, m, storeReq(seed), home)
		if source != route || j.CacheHit || j.Result.Cycles != 200 || home.asked.Load() != 1 {
			t.Fatalf("%s: source %q job %+v, fleet asked %d times", route, source, j, home.asked.Load())
		}
		// Memory now holds it: the fleet is not asked again.
		j, source = do(t, m, storeReq(seed), home)
		if source != RouteLocal || !j.CacheHit || j.StoreHit || home.asked.Load() != 1 {
			t.Fatalf("%s, memory hit: source %q job %+v, fleet asked %d times", route, source, j, home.asked.Load())
		}
	}
	shutdown(t, m)

	// A restarted node holds both on disk only: still not the fleet's turn.
	m2 := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer shutdown(t, m2)
	asked := peer.asked.Load()
	j, source = do(t, m2, storeReq(uint64(len(RouteLocal))), peer)
	if source != RouteLocal || !j.CacheHit || !j.StoreHit || peer.asked.Load() != asked {
		t.Fatalf("disk hit: source %q job %+v, fleet asked %d more times", source, j, peer.asked.Load()-asked)
	}
	if m2.Stats()["completed"] != 0 {
		t.Fatal("the restarted node simulated")
	}

	// Submit is the same walk without its blocking tiers.
	js, err := m2.Submit(storeReq(uint64(len(RouteFallback))))
	if err != nil || !js.StoreHit || js.State != StateDone {
		t.Fatalf("Submit of a key on disk: %+v err %v", js, err)
	}
}

// TestWalkFleetRefusal: an error from the fleet tier ends the walk; nothing
// is enqueued here.
func TestWalkFleetRefusal(t *testing.T) {
	m := New(Config{Workers: 1})
	defer shutdown(t, m)
	refusal := errors.New("peer says 400")
	_, source, err := m.Do(context.Background(), smallReq(), &fleetStub{route: RouteRemote, err: refusal})
	if !errors.Is(err, refusal) || source != RouteRemote {
		t.Fatalf("source %q err %v", source, err)
	}
	if got := m.Stats()["submitted"]; got != 0 {
		t.Fatalf("%d local submissions after a refusal", got)
	}
}

// TestDoWaitsOutAFullQueue: the blocking walk retries a full queue instead
// of failing, so more callers than queue slots all finish.
func TestDoWaitsOutAFullQueue(t *testing.T) {
	m := New(Config{Workers: 1, QueueCap: 1})
	defer shutdown(t, m)
	const callers = 6
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if rec, _, err := m.Do(ctx, storeReq(seed), nil); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			} else if j := rec.Job(); j.State != StateDone {
				t.Errorf("seed %d: state %s", seed, j.State)
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	if st := m.Stats(); st["completed"] != callers {
		t.Fatalf("completed %d of %d (rejected %d times on the way)", st["completed"], callers, st["rejected"])
	}
}

// TestDoCancelsItsJob: a context that ends while Do waits cancels the job
// underneath, and Do returns the context's error at once.
func TestDoCancelsItsJob(t *testing.T) {
	m := New(Config{Workers: 1})
	defer shutdown(t, m)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := m.Do(ctx, longReq(1), nil)
		done <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); m.Stats()["running"] == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Do returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Do did not return after its context ended")
	}
	waitState(t, m, m.Jobs()[0].ID, StateCanceled)

	// A context that is already over never reaches a tier.
	if _, _, err := m.Do(ctx, smallReq(), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Do under a dead context: %v", err)
	}
	if got := m.Stats()["submitted"]; got != 1 {
		t.Fatalf("%d submissions, want the first one only", got)
	}
}

// TestSingleflightAcrossTheDiskRead: the disk read happens with the lock
// released, so identical submissions race through it; still exactly one of
// them may enqueue a simulation.
func TestSingleflightAcrossTheDiskRead(t *testing.T) {
	m := New(Config{Workers: 2, Store: openStore(t, t.TempDir())})
	defer shutdown(t, m)
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.Submit(longReq(9)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := m.Stats()
	if st["enqueued"] != 1 || st["dedup_hits"] != callers-1 || st["submitted"] != callers {
		t.Fatalf("%d callers: %v", callers, st)
	}
	if _, err := m.Cancel(m.Jobs()[0].ID); err != nil {
		t.Fatal(err)
	}
}

// TestWalkLatencyPerTier: each walk observes nocd_walk_seconds once, under
// the tier that answered it, and no other: a simulation, a memory hit, a
// store hit, a job joined in flight and a peer's answer each move exactly
// their own child. A walk that nothing answered moves none.
func TestWalkLatencyPerTier(t *testing.T) {
	m := New(Config{Workers: 1, CacheCap: 1, Store: openStore(t, t.TempDir())})
	defer shutdown(t, m)
	var seen [numTiers]uint64
	moved := func(step string, tier int) {
		t.Helper()
		for i, h := range m.ins.walk {
			want := seen[i]
			if i == tier {
				want++
			}
			if got := h.Count(); got != want {
				t.Errorf("%s: tier %s observed %d walks, want %d", step, tierNames[i], got, want)
			}
			seen[i] = h.Count()
		}
	}
	do(t, m, storeReq(1), nil)
	moved("cold", tierSimulate)
	do(t, m, storeReq(1), nil)
	moved("repeat", tierMemory)
	do(t, m, storeReq(2), nil)
	moved("second key", tierSimulate)
	do(t, m, storeReq(1), nil)
	moved("first key again", tierStore)
	do(t, m, storeReq(3), &fleetStub{route: RouteRemote, res: noc.Result{Cycles: 7}})
	moved("peer", tierFleet)

	blocker, err := m.Submit(longReq(4))
	if err != nil {
		t.Fatal(err)
	}
	moved("blocker", tierSimulate)
	waitState(t, m, blocker.ID, StateRunning)
	queued, err := m.Submit(storeReq(5))
	if err != nil {
		t.Fatal(err)
	}
	moved("queued", tierSimulate)
	if j, err := m.Submit(storeReq(5)); err != nil || !j.Dedup {
		t.Fatalf("twin: %+v, %v", j, err)
	}
	moved("twin", tierInflight)
	if _, _, err := m.Do(context.Background(), smallReq(), &fleetStub{route: RouteRemote, err: errors.New("no")}); err == nil {
		t.Fatal("a refusing fleet answered")
	}
	moved("refused", -1)
	m.Cancel(blocker.ID)
	m.Cancel(queued.ID)

	var b strings.Builder
	if err := m.Telemetry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range tierNames {
		if line := `nocd_walk_seconds_count{tier="` + name + `"}`; !strings.Contains(b.String(), line) {
			t.Errorf("/metrics lacks %s", line)
		}
	}
}
