package service

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pseudocircuit/internal/store"
	"pseudocircuit/noc"
)

func storeReq(seed uint64) Request {
	return Request{
		Spec: noc.Spec{
			Topology: "mesh4x4", Scheme: "pseudo+s+b", VA: "static",
			Warmup: 50, Measure: 200, Seed: seed,
		},
		Workload: noc.WorkloadSpec{Pattern: "uniform", Rate: 0.10},
	}
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDone(t *testing.T, m *Manager, id string) Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := m.Wait(ctx, id)
	if err != nil || j.State != StateDone {
		t.Fatalf("job %s: state %s err %v", id, j.State, err)
	}
	return j
}

// TestStoreSurvivesRestart: a fleet of specs simulated by one manager is
// served entirely from the disk store by a fresh manager on the same
// directory — zero simulations, verified by the cycle and store-hit
// counters, with results bit-identical to the first run.
func TestStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	const points = 4

	m1 := New(Config{Workers: 2, Store: openStore(t, dir)})
	want := map[uint64]string{}
	for seed := uint64(1); seed <= points; seed++ {
		j, err := m1.Submit(storeReq(seed))
		if err != nil {
			t.Fatal(err)
		}
		j = waitDone(t, m1, j.ID)
		if j.CacheHit || j.StoreHit {
			t.Fatalf("first run of seed %d claimed a cache hit", seed)
		}
		want[seed] = mustJSON(t, *j.Result)
	}
	shutdown(t, m1)

	// "Restart": a brand-new manager, empty memory cache, same directory.
	m2 := New(Config{Workers: 2, Store: openStore(t, dir)})
	defer shutdown(t, m2)
	for seed := uint64(1); seed <= points; seed++ {
		j, err := m2.Submit(storeReq(seed))
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateDone || !j.CacheHit || !j.StoreHit {
			t.Fatalf("seed %d after restart: state %s cacheHit %v storeHit %v",
				seed, j.State, j.CacheHit, j.StoreHit)
		}
		if got := mustJSON(t, *j.Result); got != want[seed] {
			t.Fatalf("seed %d result changed across the store round-trip:\nbefore: %s\nafter:  %s",
				seed, want[seed], got)
		}
	}
	stats := m2.Stats()
	if stats["store_hits"] != points {
		t.Fatalf("store_hits = %d, want %d", stats["store_hits"], points)
	}
	hits := 0
	for _, s := range m2.SpanLog().Spans() {
		if s.Name == "store-hit" {
			hits++
		}
	}
	if hits != points {
		t.Fatalf("%d store-hit spans, want %d", hits, points)
	}
	if v := m2.ins.cycles.Value(); v != 0 {
		t.Fatalf("restarted manager simulated %d cycles; want 0", v)
	}
	if v := m2.ins.storeHits.Value(); v != points {
		t.Fatalf("nocd_store_hits_total = %d, want %d", v, points)
	}

	// A repeat of the same spec is now a memory hit: the disk tier is only
	// read once per key.
	j, err := m2.Submit(storeReq(1))
	if err != nil {
		t.Fatal(err)
	}
	if !j.CacheHit || j.StoreHit {
		t.Fatalf("second submission: cacheHit %v storeHit %v; want memory hit", j.CacheHit, j.StoreHit)
	}
	if v := m2.ins.storeHits.Value(); v != points {
		t.Fatalf("memory hit still read the disk store (hits %d)", v)
	}
}

// TestStoreTornEntryResimulated: a torn store entry is evicted, never
// served — the submission simulates again and repairs the entry on disk.
func TestStoreTornEntryResimulated(t *testing.T) {
	dir := t.TempDir()
	m1 := New(Config{Workers: 1, Store: openStore(t, dir)})
	j, err := m1.Submit(storeReq(7))
	if err != nil {
		t.Fatal(err)
	}
	j = waitDone(t, m1, j.ID)
	want := mustJSON(t, *j.Result)
	key := j.Key
	shutdown(t, m1)

	// Tear the entry as a crash mid-write would.
	path := filepath.Join(dir, key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	st := openStore(t, dir)
	if st.Corrupt() != 1 {
		t.Fatalf("corrupt = %d, want 1 (torn entry evicted at open)", st.Corrupt())
	}
	m2 := New(Config{Workers: 1, Store: st})
	defer shutdown(t, m2)
	j2, err := m2.Submit(storeReq(7))
	if err != nil {
		t.Fatal(err)
	}
	if j2.CacheHit || j2.StoreHit {
		t.Fatal("torn entry was served as a hit")
	}
	j2 = waitDone(t, m2, j2.ID)
	if got := mustJSON(t, *j2.Result); got != want {
		t.Fatalf("re-simulated result diverged:\nwant %s\ngot  %s", want, got)
	}
	// The write-through repaired the entry: verify on disk.
	payload, ok := st.Get(key)
	if !ok {
		t.Fatal("repaired entry missing from store")
	}
	var res noc.Result
	if err := json.Unmarshal(payload, &res); err != nil {
		t.Fatal(err)
	}
	if got := mustJSON(t, res); got != want {
		t.Fatalf("stored payload diverged:\nwant %s\ngot  %s", want, got)
	}
}

// TestStoreMatchesDirectRun: a store-served result is bit-identical to a
// direct noc.Experiment run of the same spec.
func TestStoreMatchesDirectRun(t *testing.T) {
	dir := t.TempDir()
	m1 := New(Config{Workers: 1, Store: openStore(t, dir)})
	j, err := m1.Submit(storeReq(3))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m1, j.ID)
	shutdown(t, m1)

	m2 := New(Config{Workers: 1, Store: openStore(t, dir)})
	defer shutdown(t, m2)
	j2, err := m2.Submit(storeReq(3))
	if err != nil {
		t.Fatal(err)
	}
	if !j2.StoreHit {
		t.Fatal("expected a store hit")
	}

	exp, err := storeReq(3).Spec.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	want := exp.RunSynthetic(noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.10})
	if got, wantB := mustJSON(t, *j2.Result), mustJSON(t, want); got != wantB {
		t.Fatalf("store-served result diverged from direct run:\nstore:  %s\ndirect: %s", got, wantB)
	}
}

// TestFailedStoreWriteKeepsTheResult: a store whose directory cannot be made
// by the first write (Open found the path missing; a regular file took it
// since) fails that write. The job still ends done with the result a
// storeless manager computes, the failure is counted, and the result is
// served from memory after.
func TestFailedStoreWriteKeepsTheResult(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st := openStore(t, dir)
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := New(Config{Workers: 1, Store: st})
	defer shutdown(t, m)
	j, err := m.Submit(storeReq(5))
	if err != nil {
		t.Fatal(err)
	}
	j = waitDone(t, m, j.ID)

	bare := New(Config{Workers: 1})
	defer shutdown(t, bare)
	want, err := bare.Submit(storeReq(5))
	if err != nil {
		t.Fatal(err)
	}
	want = waitDone(t, bare, want.ID)
	if got, w := mustJSON(t, *j.Result), mustJSON(t, *want.Result); got != w {
		t.Fatalf("result with a failed store write:\n%s\nwithout a store:\n%s", got, w)
	}
	if v := m.ins.storePutErrs.Value(); v != 1 {
		t.Fatalf("nocd_store_put_errors_total = %d, want 1", v)
	}
	again, err := m.Submit(storeReq(5))
	if err != nil {
		t.Fatal(err)
	}
	if again.State != StateDone || !again.CacheHit || again.StoreHit {
		t.Fatalf("resubmission: state %s cacheHit %v storeHit %v; want a memory hit", again.State, again.CacheHit, again.StoreHit)
	}
}

// TestStoreGarbageIsAMiss: an entry whose checksum holds but whose payload
// is not a result (another program's bytes under a key) is a miss: the spec
// is simulated again, and the entry is overwritten with its result.
func TestStoreGarbageIsAMiss(t *testing.T) {
	st := openStore(t, t.TempDir())
	_, key, _, err := Canonicalize(storeReq(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, []byte("not a result")); err != nil {
		t.Fatal(err)
	}
	m := New(Config{Workers: 1, Store: st})
	defer shutdown(t, m)
	j, err := m.Submit(storeReq(9))
	if err != nil {
		t.Fatal(err)
	}
	if j.CacheHit || j.StoreHit {
		t.Fatal("a payload that is not a result was served")
	}
	waitDone(t, m, j.ID)
	if payload, ok := st.Get(key); !ok || !json.Valid(payload) {
		t.Fatalf("entry after the run: %q, %v", payload, ok)
	}
}
