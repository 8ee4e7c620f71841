package service

import (
	"context"
	"testing"
	"time"
)

// terminalRecordsHoldNoRun fails t if any terminal record of m still holds
// its run part.
func terminalRecordsHoldNoRun(t *testing.T, m *Manager) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, j := range m.jobs {
		j.mu.Lock()
		held := j.State.Terminal() && j.run != nil
		j.mu.Unlock()
		if held {
			t.Errorf("terminal job %s still holds its run part", id)
		}
	}
}

// TestOneResultPerKey: a cold run, a memory hit and a Do of the same key
// (what a sweep point keeps) all hold the cache's one *noc.Result; a
// restarted manager over the same store shares its disk-decoded result the
// same way. No terminal record keeps a run part.
func TestOneResultPerKey(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sharedBy := func(m *Manager, key string, jobs ...Job) {
		t.Helper()
		m.mu.Lock()
		cached := m.cache[key]
		m.mu.Unlock()
		if cached == nil {
			t.Fatal("key not cached")
		}
		for _, j := range jobs {
			if j.Result != cached {
				t.Errorf("job %s (cacheHit %v storeHit %v) holds its own result, not the cached one",
					j.ID, j.CacheHit, j.StoreHit)
			}
			if got, _ := m.Get(j.ID); got.Result != cached {
				t.Errorf("a snapshot of job %s copies the result", j.ID)
			}
		}
		terminalRecordsHoldNoRun(t, m)
	}

	m1 := New(Config{Workers: 1, Store: openStore(t, dir)})
	cold, err := m1.Submit(storeReq(1))
	if err != nil {
		t.Fatal(err)
	}
	cold = waitDone(t, m1, cold.ID)
	memHit, err := m1.Submit(storeReq(1))
	if err != nil || !memHit.CacheHit || memHit.StoreHit {
		t.Fatalf("second submission: %+v, %v", memHit, err)
	}
	point, _, err := m1.Do(ctx, storeReq(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	sharedBy(m1, cold.Key, cold, memHit, point)
	shutdown(t, m1)

	m2 := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer shutdown(t, m2)
	storeHit, err := m2.Submit(storeReq(1))
	if err != nil || !storeHit.StoreHit {
		t.Fatalf("restarted manager: %+v, %v", storeHit, err)
	}
	memHit, err = m2.Submit(storeReq(1))
	if err != nil || !memHit.CacheHit || memHit.StoreHit {
		t.Fatalf("after the store hit: %+v, %v", memHit, err)
	}
	point, _, err = m2.Do(ctx, storeReq(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	sharedBy(m2, cold.Key, storeHit, memHit, point)
	if mustJSON(t, *storeHit.Result) != mustJSON(t, *cold.Result) {
		t.Fatal("the store's result differs from the run's")
	}
}

// memHitAllocs is the allocation count of a memory-hit Submit:
// canonicalizing and hashing the request, registering the record and taking
// its snapshot. It was 25 while every record carried a context, a channel
// and a copy of the result.
const memHitAllocs = 20

func TestMemoryHitAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector allocates")
	}
	m := New(Config{Workers: 1})
	defer shutdown(t, m)
	j, err := m.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, j.ID)
	got := testing.AllocsPerRun(100, func() {
		if j, err := m.Submit(smallReq()); err != nil || !j.CacheHit {
			t.Fatalf("not a memory hit: %+v, %v", j, err)
		}
	})
	if got > memHitAllocs {
		t.Fatalf("memory-hit Submit allocates %.0f objects, want at most %d", got, memHitAllocs)
	}
}

// TestTerminalTimingsFrozen: what a terminal job reports for its queue wait,
// run time and rate is what its lifecycle marks give, computed as a live
// snapshot computes them, for a job that finished and one that was
// cancelled mid-run. The marks are the job's queue-wait and run spans.
func TestTerminalTimingsFrozen(t *testing.T) {
	m := New(Config{Workers: 1})
	defer shutdown(t, m)
	done, err := m.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	done = waitDone(t, m, done.ID)
	canceled, err := m.Submit(longReq(7))
	if err != nil {
		t.Fatal(err)
	}
	for j := waitState(t, m, canceled.ID, StateRunning); j.CyclesDone == 0; j, _ = m.Get(canceled.ID) {
		time.Sleep(time.Millisecond) // cancel mid-run, after a chunk has counted its cycles
	}
	if _, err := m.Cancel(canceled.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, canceled.ID, StateCanceled)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if canceled, err = m.Wait(ctx, canceled.ID); err != nil { // its spans are recorded by now
		t.Fatal(err)
	}
	if canceled.CyclesDone == 0 || canceled.CyclesDone == canceled.CyclesTotal {
		t.Fatalf("cancelled job ran %d of %d cycles", canceled.CyclesDone, canceled.CyclesTotal)
	}
	if again, _ := m.Cancel(canceled.ID); again.State != StateCanceled || again.RunMS != canceled.RunMS {
		t.Fatalf("cancelling a terminal job changed it: %+v", again)
	}

	marks := map[string]time.Duration{} // job ID + span name → span length
	for _, s := range m.SpanLog().Spans() {
		marks[s.Job+" "+s.Name] = s.Duration()
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, j := range []Job{done, canceled} {
		wait, run := marks[j.ID+" queue-wait"], marks[j.ID+" run"]
		if j.QueueWaitMS != ms(wait) || j.RunMS != ms(run) {
			t.Errorf("job %s: queue wait %v ms, run %v ms; its marks give %v and %v",
				j.ID, j.QueueWaitMS, j.RunMS, ms(wait), ms(run))
		}
		if want := float64(j.CyclesDone) / run.Seconds(); j.CyclesPerSec != want {
			t.Errorf("job %s: %v cycles/s, its marks give %v", j.ID, j.CyclesPerSec, want)
		}
		if j.ETASeconds != 0 {
			t.Errorf("terminal job %s reports an ETA", j.ID)
		}
	}
	terminalRecordsHoldNoRun(t, m)
}
