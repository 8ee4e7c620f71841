package sweepapi

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"pseudocircuit/internal/service"
	"pseudocircuit/internal/store"
)

// retainedPerPoint runs svc-cmp-sweep's loop at fewer cycles and returns the
// live heap a finished sweep point keeps in the service tier: its job
// record, its sweep point and its share of the result. The loop is a warm-up
// sweep and then sweeps sweeps of 32 CMP points, seeds sliding by one block
// of 8 a sweep, through a one-worker tier whose memory cache holds two
// blocks over a disk store, so that each sweep has 8 cold points, 16 memory
// hits and 8 store hits, and every record stays under the default JobsCap
// and SweepsCap.
func retainedPerPoint(tb testing.TB, sweeps int) float64 {
	const block = 8
	sweep := func(sw *Manager, blocks ...int) {
		var seeds []int
		for _, k := range blocks {
			for i := 0; i < block; i++ {
				seeds = append(seeds, 1+k*block+i)
			}
		}
		body, _ := json.Marshal(map[string]any{
			"template": map[string]any{"topology": "cmesh4x4x4", "scheme": "pseudo+s+b",
				"routing": "xy", "va": "static", "warmup": 20, "measure": 50,
				"workload": map[string]any{"kind": "cmp", "benchmark": "fma3d"}},
			"axes": map[string]any{"seed": seeds},
		})
		st, err := sw.Submit(body)
		if err != nil {
			tb.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if st, err = sw.Wait(ctx, st.ID); err != nil || st.Done != len(seeds) {
			tb.Fatalf("sweep %s: %+v, %v", st.ID, st, err)
		}
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	st, err := store.Open(tb.TempDir(), 256<<20)
	if err != nil {
		tb.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 1, CacheCap: 2 * block, Store: st})
	sw := New(svc, Config{Inflight: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sw.Shutdown(ctx)
		svc.Shutdown(ctx)
	}()
	before := live()
	sweep(sw, 1, 0, 2)
	for j := 0; j < sweeps; j++ {
		sweep(sw, j, j+1, j+2, j+3)
	}
	after := live()
	points := 3*block + sweeps*4*block
	if got := svc.Stats()["jobs"]; got != int64(points) {
		tb.Fatalf("%d job records retained, want every point's", got)
	}
	return float64(after-before) / float64(points)
}

// BenchmarkRetainedPoint reports retainedPerPoint over svc-cmp-sweep's 120
// sweeps, the 3 864 points the default caps retain. Run it with
//
//	go test -run '^$' -bench RetainedPoint -benchtime 1x ./internal/sweepapi
func BenchmarkRetainedPoint(b *testing.B) {
	for n := 0; n < b.N; n++ {
		b.ReportMetric(retainedPerPoint(b, 120), "B/point")
	}
}

// maxRetainedPoint bounds TestRetainedPointBytes. A point read 1 225 B while
// the sweep kept its own copy of every point's job record beside the
// service's, about 775 B as a view of a record that held a whole wire Job,
// about 455 B while a store hit decoded and kept an answer of its own, and
// reads about 335 B now that it shares the answer its key's retained cold
// record holds.
const maxRetainedPoint = 380

// TestRetainedPointBytes is BenchmarkRetainedPoint at a third of the sweeps.
func TestRetainedPointBytes(t *testing.T) {
	got := retainedPerPoint(t, 40)
	if got > maxRetainedPoint {
		t.Fatalf("a finished sweep point keeps %.0f B of live heap, want at most %d", got, maxRetainedPoint)
	}
	t.Logf("%.0f B/point", got)
}
