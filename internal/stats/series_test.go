package stats_test

import (
	"testing"

	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/stats"
)

// noRouters is the registry of the tests that drive only packet counters.
var noRouters = stats.NewRegistry(nil, nil)

func TestNewSeriesRejectsBadArgs(t *testing.T) {
	for _, c := range []struct{ w, cap int }{{0, 4}, {4, 0}, {-1, 4}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSeries(%d, %d) did not panic", c.w, c.cap)
				}
			}()
			stats.NewSeries(c.w, c.cap)
		}()
	}
}

// Drive a fake network through three windows and check the per-window deltas.
func TestSeriesWindows(t *testing.T) {
	var n stats.Network
	g := stats.NewRegistry([]int{1}, []int{1})
	s := stats.NewSeries(10, 8)
	for now := sim.Cycle(1); now <= 30; now++ {
		n.PacketsInjected += 2 // 20 per window
		if now%2 == 0 {
			n.PacketsDelivered++
			n.FlitsDelivered += 5
			n.LatencySamples++
			n.LatencySum += 40
		}
		g.Router(0).In[0].Traversals += 4
		g.Router(0).In[0].PCReused += 3
		s.Tick(now, &n, g)
	}
	got := s.Samples()
	if len(got) != 3 || s.Len() != 3 || s.Dropped() != 0 {
		t.Fatalf("windows = %d (dropped %d), want 3", len(got), s.Dropped())
	}
	for i, sm := range got {
		if sm.From != sim.Cycle(i*10) || sm.To != sm.From+10 {
			t.Errorf("window %d spans [%d,%d)", i, sm.From, sm.To)
		}
		if sm.Injected != 20 || sm.Delivered != 5 || sm.FlitsDelivered != 25 {
			t.Errorf("window %d deltas: %+v", i, sm)
		}
		if sm.Traversals != 40 || sm.PCReused != 30 {
			t.Errorf("window %d traversal deltas: %+v", i, sm)
		}
		if sm.Cycles() != 10 {
			t.Errorf("window %d Cycles = %d", i, sm.Cycles())
		}
		if r := sm.InjectionRate(2); r != 1.0 {
			t.Errorf("window %d InjectionRate = %v, want 1.0", i, r)
		}
		if th := sm.Throughput(5); th != 0.5 {
			t.Errorf("window %d Throughput = %v, want 0.5", i, th)
		}
		if l := sm.AvgLatency(); l != 40 {
			t.Errorf("window %d AvgLatency = %v, want 40", i, l)
		}
		if r := sm.Reusability(); r != 0.75 {
			t.Errorf("window %d Reusability = %v, want 0.75", i, r)
		}
	}
}

// The ring bound evicts the oldest windows; Samples stays chronological.
func TestSeriesRingWrap(t *testing.T) {
	var n stats.Network
	s := stats.NewSeries(10, 3)
	for now := sim.Cycle(1); now <= 70; now++ {
		n.PacketsInjected++
		s.Tick(now, &n, noRouters)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.Dropped() != 4 {
		t.Errorf("Dropped = %d, want 4", s.Dropped())
	}
	got := s.Samples()
	for i, sm := range got {
		want := sim.Cycle(40 + i*10)
		if sm.From != want {
			t.Errorf("sample %d From = %d, want %d (chronological, oldest evicted)", i, sm.From, want)
		}
	}
}

// Rebase must close the open partial window against the pre-reset counters
// and difference later windows against the zeroed baseline — the warmup /
// measurement seam.
func TestSeriesRebase(t *testing.T) {
	var n stats.Network
	s := stats.NewSeries(10, 8)
	for now := sim.Cycle(1); now <= 15; now++ {
		n.PacketsInjected++
		s.Tick(now, &n, noRouters)
	}
	// Mid-window reset at cycle 15, as ResetStats does.
	s.Rebase(15, &n, noRouters)
	n.Reset(15)
	for now := sim.Cycle(16); now <= 25; now++ {
		n.PacketsInjected += 3
		s.Tick(now, &n, noRouters)
	}
	got := s.Samples()
	if len(got) != 3 {
		t.Fatalf("windows = %d, want 3 (full, partial, post-reset)", len(got))
	}
	if got[1].From != 10 || got[1].To != 15 || got[1].Injected != 5 {
		t.Errorf("partial warmup window = %+v", got[1])
	}
	if got[2].From != 15 || got[2].To != 25 || got[2].Injected != 30 {
		t.Errorf("post-reset window = %+v (baseline not rebased?)", got[2])
	}
}

// Rebase with nothing elapsed must not emit an empty window.
func TestSeriesRebaseNoPartial(t *testing.T) {
	var n stats.Network
	s := stats.NewSeries(10, 8)
	for now := sim.Cycle(1); now <= 10; now++ {
		s.Tick(now, &n, noRouters)
	}
	s.Rebase(10, &n, noRouters)
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1 (no zero-length window from Rebase at a boundary)", s.Len())
	}
}

func TestSampleZeroGuards(t *testing.T) {
	var sm stats.Sample
	if sm.InjectionRate(64) != 0 || sm.Throughput(64) != 0 || sm.AvgLatency() != 0 || sm.Reusability() != 0 {
		t.Error("zero-value Sample rates must be 0")
	}
	sm.To = 10
	if sm.InjectionRate(0) != 0 || sm.Throughput(0) != 0 {
		t.Error("zero nodes must not divide by zero")
	}
}
