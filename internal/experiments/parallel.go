package experiments

import (
	"runtime"
	"sync"
)

// forEach runs fn(i) for i in [0, n) on up to GOMAXPROCS workers. Every
// simulation is self-contained and deterministic (its own network, RNG,
// pool and meters), so per-index results are identical to a sequential run;
// callers write results only to their own index.
func forEach(n int, fn func(i int)) {
	forEachN(n, runtime.GOMAXPROCS(0), fn)
}

// forEachN is forEach with an explicit worker count (tests pin it).
func forEachN(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
