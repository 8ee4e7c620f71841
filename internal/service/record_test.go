package service

import (
	"context"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// terminalRecordsHoldNoRun fails t if any terminal record of m still holds
// its run part.
func terminalRecordsHoldNoRun(t *testing.T, m *Manager) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		if s := j.Job(); s.State.Terminal() && j.live.Load() != nil {
			t.Errorf("terminal job %s still holds its run part", s.ID)
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
			if j.Result != cached.res {
				t.Errorf("job %s (cacheHit %v storeHit %v) holds its own result, not the cached one",
					j.ID, j.CacheHit, j.StoreHit)
			}
			if got, _ := m.Get(j.ID); got.Result != cached.res {
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
	sharedBy(m1, cold.Key, cold, memHit, point.Job())
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
	sharedBy(m2, cold.Key, storeHit, memHit, point.Job())
	if mustJSON(t, *storeHit.Result) != mustJSON(t, *cold.Result) {
		t.Fatal("the store's result differs from the run's")
	}
}

// TestOneAnswerPerKey extends TestOneResultPerKey from the result to the
// whole answer: every record of a key that one manager retains — the cold
// run, a job that joined it in flight, memory hits, a Do's record — and
// every wire view of them share one key string, one request and one result,
// the ones the cache holds; after a restart the store hit's answer is the
// one every later record shares.
func TestOneAnswerPerKey(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	oneAnswer := func(m *Manager, key string, want int, extra ...*Record) {
		t.Helper()
		m.mu.Lock()
		a := m.cache[key]
		var recs []*Record
		for _, j := range m.jobs {
			if j.ans.key == key {
				recs = append(recs, j)
			}
		}
		m.mu.Unlock()
		if a == nil || a.res == nil {
			t.Fatal("key not cached")
		}
		if len(recs) != want {
			t.Fatalf("%d records of the key retained, want %d", len(recs), want)
		}
		for _, j := range append(recs, extra...) {
			s := j.Job()
			switch {
			case j.ans != a:
				t.Errorf("job %s holds an answer of its own", s.ID)
			case unsafe.StringData(s.Key) != unsafe.StringData(a.key):
				t.Errorf("job %s shows a key string of its own", s.ID)
			case s.Result != a.res:
				t.Errorf("job %s shows a result of its own", s.ID)
			}
		}
	}

	m1 := New(Config{Workers: 1, Store: openStore(t, dir)})
	blocker, err := m1.Submit(longReq(3))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, blocker.ID, StateRunning)
	cold, err := m1.Submit(storeReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if joined, err := m1.Submit(storeReq(1)); err != nil || !joined.Dedup || joined.ID != cold.ID {
		t.Fatalf("twin of a queued job: %+v, %v", joined, err)
	}
	if _, err := m1.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, m1, cold.ID)
	for i := 0; i < 2; i++ {
		if hit, err := m1.Submit(storeReq(1)); err != nil || !hit.CacheHit {
			t.Fatalf("repeat %d: %+v, %v", i, hit, err)
		}
	}
	point, _, err := m1.Do(ctx, storeReq(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	oneAnswer(m1, cold.Key, 4, point)
	shutdown(t, m1)

	m2 := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer shutdown(t, m2)
	if hit, err := m2.Submit(storeReq(1)); err != nil || !hit.StoreHit {
		t.Fatalf("restarted manager: %+v, %v", hit, err)
	}
	if hit, err := m2.Submit(storeReq(1)); err != nil || !hit.CacheHit || hit.StoreHit {
		t.Fatalf("after the store hit: %+v, %v", hit, err)
	}
	if point, _, err = m2.Do(ctx, storeReq(1), nil); err != nil {
		t.Fatal(err)
	}
	oneAnswer(m2, cold.Key, 3, point)
}

// memHitAllocs is the allocation count of a memory-hit Submit:
// canonicalizing and hashing the request, registering the record and taking
// its snapshot. It was 20 while the canonical scheme and routing names were
// lowercased into fresh strings, 25 while every record carried a context, a
// channel and a copy of the result, and 18 while the key's JSON and hex
// went through buffers of their own.
const memHitAllocs = 17

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

// TestJobIDs: a job ID is "j" and the record's sequence number, and only
// the string id prints resolves to a record.
func TestJobIDs(t *testing.T) {
	m := New(Config{Workers: 1})
	defer shutdown(t, m)
	j, err := m.Submit(smallReq())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, j.ID)
	for i := 0; i < 11; i++ {
		if j, err = m.Submit(smallReq()); err != nil {
			t.Fatal(err)
		}
	}
	if j.ID != "j12" {
		t.Fatalf("twelfth record is %q", j.ID)
	}
	for _, id := range []string{"j1", "j7", "j12"} {
		if got, ok := m.Get(id); !ok || got.ID != id {
			t.Errorf("Get(%q) = %q, %v", id, got.ID, ok)
		}
	}
	for _, id := range []string{"", "j", "j0", "j01", "j+1", "j-1", "j13", "J1", "1", "j1 ", "j99999999999999999999"} {
		if _, ok := m.Get(id); ok {
			t.Errorf("Get(%q) found a record", id)
		}
	}
}

// TestRecordReadsWhileItEnds: readers on several goroutines take the wire
// view of a job while it runs and ends — through Get, Jobs, Wait and Done —
// and never see it go back: the state only moves forward, the cycle count
// never falls, and a view that says done carries the result. Run it under
// -race: the record's fields are guarded by its run until the run goes.
func TestRecordReadsWhileItEnds(t *testing.T) {
	m := New(Config{Workers: 1})
	defer shutdown(t, m)
	r := smallReq()
	r.Measure = 20_000
	j, err := m.Submit(r)
	if err != nil {
		t.Fatal(err)
	}
	order := map[State]int{StateQueued: 0, StateRunning: 1, StateDone: 2}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			done, _ := m.Done(j.ID)
			last := Job{State: StateQueued}
			for {
				var s Job
				switch g % 2 {
				case 0:
					s, _ = m.Get(j.ID)
				default:
					s = m.Jobs()[0]
				}
				if order[s.State] < order[last.State] || s.CyclesDone < last.CyclesDone {
					t.Errorf("reader %d saw %s/%d after %s/%d", g, s.State, s.CyclesDone, last.State, last.CyclesDone)
					return
				}
				if s.State == StateDone && (s.Result == nil || s.CyclesDone != s.CyclesTotal) {
					t.Errorf("reader %d: a done view without its result: %+v", g, s)
					return
				}
				last = s
				select {
				case <-done:
					if s.State != StateDone {
						continue // one more read sees the end
					}
					return
				default:
				}
			}
		}(g)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s, err := m.Wait(ctx, j.ID); err != nil || s.State != StateDone {
		t.Fatalf("job ended %+v, %v", s, err)
	}
	wg.Wait()
}
