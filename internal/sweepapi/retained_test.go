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

// BenchmarkRetainedPoint reports the live heap a finished sweep point keeps
// in the service tier: its job record, its sweep point and its share of the
// result. The loop is svc-cmp-sweep's at fewer cycles: 120 sweeps of 32 CMP
// points, seeds sliding by one block of 8 a sweep, through a one-worker tier
// whose memory cache holds two blocks over a disk store, so that each sweep
// has 8 cold points, 16 memory hits and 8 store hits, and every record stays
// under the default JobsCap and SweepsCap. Run it with
//
//	go test -run '^$' -bench RetainedPoint -benchtime 1x ./internal/sweepapi
func BenchmarkRetainedPoint(b *testing.B) {
	const block, sweeps = 8, 120
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
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if st, err = sw.Wait(ctx, st.ID); err != nil || st.Done != len(seeds) {
			b.Fatalf("sweep %s: %+v, %v", st.ID, st, err)
		}
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for n := 0; n < b.N; n++ {
		st, err := store.Open(b.TempDir(), 256<<20)
		if err != nil {
			b.Fatal(err)
		}
		svc := service.New(service.Config{Workers: 1, CacheCap: 2 * block, Store: st})
		sw := New(svc, Config{Inflight: 1})
		before := live()
		sweep(sw, 1, 0, 2)
		for j := 0; j < sweeps; j++ {
			sweep(sw, j, j+1, j+2, j+3)
		}
		after := live()
		if got := svc.Stats()["jobs"]; got != 3*block+sweeps*4*block {
			b.Fatalf("%d job records retained, want every point's", got)
		}
		b.ReportMetric(float64(after-before)/float64(3*block+sweeps*4*block), "B/point")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		sw.Shutdown(ctx)
		svc.Shutdown(ctx)
		cancel()
	}
}
