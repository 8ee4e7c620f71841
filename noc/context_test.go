package noc_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pseudocircuit/noc"
)

func ctxExperiment() noc.Experiment {
	return noc.Experiment{
		Topology: noc.Mesh(4, 4),
		Scheme:   noc.PseudoSB,
		Routing:  noc.XY,
		Policy:   noc.StaticVA,
		Warmup:   300,
		Measure:  1500,
	}
}

var ctxTraffic = noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.10}

// The window lists and chunk sizes the protocol tests cross: one default
// window and three, chunks from one cycle to more than a phase.
var (
	ctxWindows = []struct {
		name    string
		windows []int
	}{{"one default window", nil}, {"three windows", []int{375, 750, 375}}}
	ctxEvery = []int{0, 1, 7, 100, 10000}
)

// ctxRun runs e's protocol on a fresh network and returns that network too.
func ctxRun(ctx context.Context, e noc.Experiment, windows []int, every int, fn func(*noc.Network)) (*noc.Network, []noc.Result, error) {
	n := e.Build()
	out, err := e.RunWindows(ctx, n, e.SyntheticWorkload(ctxTraffic), windows, every, fn)
	return n, out, err
}

// ctxChunks is how often the hook must run: once per chunk, Σ⌈phase/every⌉
// over warmup and the windows, one chunk per phase for every <= 0.
func ctxChunks(e noc.Experiment, windows []int, every int) int {
	if windows == nil {
		windows = []int{e.Measure}
	}
	total := 0
	for _, phase := range append([]int{e.Warmup}, windows...) {
		if every <= 0 {
			total++
		} else {
			total += (phase + every - 1) / every
		}
	}
	return total
}

// TestRunContextMatchesRun is the measurement protocol's contract over both
// window lists crossed with every chunk size: chunking only changes where
// the loop pauses, never the cycle sequence, so every case gives every=0's
// Results (Run's, for the one default window), and the hook runs exactly
// once per chunk.
func TestRunContextMatchesRun(t *testing.T) {
	e := ctxExperiment()
	for _, c := range ctxWindows {
		windows := c.windows
		_, want, err := ctxRun(context.Background(), e, windows, 0, nil)
		if err != nil || len(want) != max(len(windows), 1) {
			t.Fatalf("%s: %d results, error %v", c.name, len(want), err)
		}
		if windows == nil {
			if plain := e.RunSynthetic(ctxTraffic); want[0] != plain {
				t.Fatalf("one default window differs from Run:\ngot:  %+v\nwant: %+v", want[0], plain)
			}
		}
		for _, every := range ctxEvery {
			t.Run(fmt.Sprintf("%s/every=%d", c.name, every), func(t *testing.T) {
				calls := 0
				_, got, err := ctxRun(context.Background(), e, windows, every, func(*noc.Network) { calls++ })
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("diverged from every=0:\ngot:  %+v\nwant: %+v", got, want)
				}
				if want := ctxChunks(e, windows, every); calls != want {
					t.Errorf("hook ran %d times, want %d", calls, want)
				}
			})
		}
	}
}

// TestRunOnObserved checks RunOnObserved is the one-default-window protocol:
// Run's Result and exactly one hook call per chunk, for every chunk size.
func TestRunOnObserved(t *testing.T) {
	e := ctxExperiment()
	want := e.RunSynthetic(ctxTraffic)
	for _, every := range ctxEvery {
		calls := 0
		res := e.RunOnObserved(e.Build(), e.SyntheticWorkload(ctxTraffic), every, func(*noc.Network) { calls++ })
		if res != want || calls != ctxChunks(e, nil, every) {
			t.Errorf("every=%d: %d hook calls, result %+v; want %d calls, %+v", every, calls, res, ctxChunks(e, nil, every), want)
		}
	}
}

// TestRunContextCancelledBeforeStart returns at once without simulating.
func TestRunContextCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, out, err := ctxRun(ctx, ctxExperiment(), nil, 100, nil)
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("want context.Canceled and no results, got %v, %d results", err, len(out))
	}
	if n.Now() != 0 {
		t.Fatalf("cancelled-before-start run advanced to cycle %d", n.Now())
	}
}

// TestRunContextCancelMidRun cancels from the hook after the second chunk of
// the second window; the run must stop right there, on that chunk boundary,
// not at the window's end.
func TestRunContextCancelMidRun(t *testing.T) {
	e := ctxExperiment()
	const every = 100
	windows := []int{375, 750, 375}
	stop := e.Warmup + windows[0] + 2*every
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n, out, err := ctxRun(ctx, e, windows, every, func(n *noc.Network) {
		if int(n.Now()) == stop {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("want context.Canceled and no results, got %v, %d results", err, len(out))
	}
	if got := int(n.Now()); got != stop {
		t.Fatalf("run stopped at cycle %d, want %d (the chunk boundary of the cancel)", got, stop)
	}
}
