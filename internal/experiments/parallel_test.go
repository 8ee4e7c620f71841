package experiments

import (
	"reflect"
	"sync"
	"testing"

	"pseudocircuit/noc"
)

// runPoint runs one small grid point, the way every Fig function does.
func runPoint(i int) noc.Result {
	e := noc.Experiment{
		Topology: noc.Mesh(4, 4),
		Scheme:   noc.Schemes[i%len(noc.Schemes)],
		Routing:  noc.XY,
		Policy:   noc.StaticVA,
		Seed:     uint64(1 + i),
		Warmup:   200,
		Measure:  800,
	}
	return e.RunSynthetic(noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.10})
}

// TestForEachParallelMatchesSequential drives the sweep executor with one
// worker and with many and requires identical per-index results. Run under
// -race this also checks that concurrently running points share nothing.
func TestForEachParallelMatchesSequential(t *testing.T) {
	const n = 16
	seq := make([]noc.Result, n)
	forEachN(n, 1, func(i int) {
		seq[i] = runPoint(i)
	})
	for _, workers := range []int{2, 4, 8} {
		par := make([]noc.Result, n)
		forEachN(n, workers, func(i int) {
			par[i] = runPoint(i)
		})
		for i := range seq {
			if !reflect.DeepEqual(seq[i], par[i]) {
				t.Errorf("workers=%d index %d diverged:\nseq: %+v\npar: %+v", workers, i, seq[i], par[i])
			}
		}
	}
}

// TestForEachNZeroWork: n=0 must return immediately — no worker goroutines,
// no fn calls, no hang on the work channel — for every worker count
// (including the degenerate 0 and negative ones).
func TestForEachNZeroWork(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 4} {
		calls := 0
		forEachN(0, workers, func(i int) {
			calls++
		})
		if calls != 0 {
			t.Errorf("workers=%d: fn called %d times for n=0", workers, calls)
		}
	}
}

// TestForEachNWorkersExceedN: with more workers than work items the
// executor still runs each index exactly once.
func TestForEachNWorkersExceedN(t *testing.T) {
	const n = 3
	var mu sync.Mutex
	counts := make([]int, n)
	forEachN(n, 64, func(i int) {
		mu.Lock()
		counts[i]++
		mu.Unlock()
	})
	for i, c := range counts {
		if c != 1 {
			t.Errorf("index %d ran %d times", i, c)
		}
	}
}

// TestForEachNSingleWorkerIsSequential: workers=1 (and below) must run on
// the calling goroutine in index order — callers rely on this for
// deterministic sequential baselines.
func TestForEachNSingleWorkerIsSequential(t *testing.T) {
	for _, workers := range []int{0, 1} {
		var order []int
		forEachN(5, workers, func(i int) {
			order = append(order, i) // unsynchronized: must be one goroutine
		})
		for k, i := range order {
			if k != i {
				t.Fatalf("workers=%d: position %d got index %d", workers, k, i)
			}
		}
	}
}

// TestForEachCoversAllIndices guards the executor itself: every index runs
// exactly once regardless of worker count.
func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 3, 7, 32} {
		counts := make([]int, 50)
		var order []int // written only under workers=1
		forEachN(len(counts), workers, func(i int) {
			if workers == 1 {
				order = append(order, i)
				counts[i]++
				return
			}
			counts[i]++ // distinct indices: no two workers share a slot
		})
		for i, c := range counts {
			if c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		if workers == 1 {
			for k, i := range order {
				if k != i {
					t.Errorf("sequential order violated: position %d got index %d", k, i)
					break
				}
			}
		}
	}
}
