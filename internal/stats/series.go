package stats

import (
	"fmt"

	"pseudocircuit/internal/sim"
)

// Sample is one closed window of the cycle-windowed time series: the deltas
// of the global counters over [From, To). Rates derived from it expose the
// transients a whole-run average hides (warmup convergence, injection bursts,
// pseudo-circuit reuse ramping up as circuits form).
type Sample struct {
	From, To sim.Cycle

	Injected       uint64 // packets entering source queues
	Delivered      uint64 // packets fully ejected
	FlitsDelivered uint64
	LatencySamples uint64
	LatencySum     uint64
	Traversals     uint64
	PCReused       uint64
	Bypassed       uint64
}

// Cycles returns the window length.
func (s Sample) Cycles() int { return int(s.To - s.From) }

// InjectionRate returns injected packets per node per cycle over the window.
func (s Sample) InjectionRate(nodes int) float64 {
	if c := s.Cycles(); c > 0 && nodes > 0 {
		return float64(s.Injected) / float64(c) / float64(nodes)
	}
	return 0
}

// Throughput returns delivered flits per node per cycle over the window.
func (s Sample) Throughput(nodes int) float64 {
	if c := s.Cycles(); c > 0 && nodes > 0 {
		return float64(s.FlitsDelivered) / float64(c) / float64(nodes)
	}
	return 0
}

// AvgLatency returns the mean latency of packets delivered in the window.
func (s Sample) AvgLatency() float64 {
	if s.LatencySamples == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.LatencySamples)
}

// Reusability returns the window's pseudo-circuit reuse fraction.
func (s Sample) Reusability() float64 {
	if s.Traversals == 0 {
		return 0
	}
	return float64(s.PCReused) / float64(s.Traversals)
}

// String renders one sample for logs.
func (s Sample) String() string {
	return fmt.Sprintf("[%d,%d) inj=%d dlv=%d lat=%.2f reuse=%.1f%%",
		s.From, s.To, s.Injected, s.Delivered, s.AvgLatency(), 100*s.Reusability())
}

// Series records cycle-windowed samples of the network-wide counters into a
// bounded ring buffer. The network ticks it once per cycle; every window
// cycles it closes a Sample, and only then are the router rows summed. All
// storage is preallocated, so the per-cycle path never allocates (the
// steady-state zero-alloc contract holds with the series enabled).
//
// The series spans warmup and measurement: Rebase (called when the counters
// are reset) closes the current partial window and restarts the baseline, so
// warmup windows stay in the ring and post-reset windows difference against
// the zeroed counters.
type Series struct {
	window  int
	samples []Sample // ring storage, len grows to cap then wraps
	head    int      // index of the oldest sample once wrapped
	dropped uint64   // samples evicted by the ring bound

	prev Sample    // cumulative counters at the last window boundary
	from sim.Cycle // start of the currently open window
}

// NewSeries returns a series with the given window length in cycles and ring
// capacity in windows. Both must be positive.
func NewSeries(window, capacity int) *Series {
	if window <= 0 || capacity <= 0 {
		panic("stats: series window and capacity must be positive")
	}
	return &Series{window: window, samples: make([]Sample, 0, capacity)}
}

// Window returns the configured window length in cycles.
func (s *Series) Window() int { return s.window }

// Dropped returns how many closed windows were evicted by the ring bound.
func (s *Series) Dropped() uint64 { return s.dropped }

// Len returns the number of retained samples.
func (s *Series) Len() int { return len(s.samples) }

// Tick advances the series to cycle now; the network calls it once per Step
// after updating st. When a window boundary is crossed the open window is
// closed into the ring.
func (s *Series) Tick(now sim.Cycle, st *Network, reg *Registry) {
	if now-s.from < sim.Cycle(s.window) {
		return
	}
	s.close(now, st, reg)
}

// Rebase closes the currently open window (if any cycles elapsed) against
// the pre-reset counters and restarts the baseline at now with zeroed
// counters. The network calls it from ResetStats immediately before the
// reset.
func (s *Series) Rebase(now sim.Cycle, st *Network, reg *Registry) {
	if now > s.from {
		s.close(now, st, reg)
	}
	s.prev = Sample{}
	s.from = now
}

func (s *Series) close(now sim.Cycle, st *Network, reg *Registry) {
	t := reg.Totals()
	cur := Sample{
		Injected:       st.PacketsInjected,
		Delivered:      st.PacketsDelivered,
		FlitsDelivered: st.FlitsDelivered,
		LatencySamples: st.LatencySamples,
		LatencySum:     st.LatencySum,
		Traversals:     t.Traversals,
		PCReused:       t.PCReused,
		Bypassed:       t.Bypassed,
	}
	sm := Sample{
		From:           s.from,
		To:             now,
		Injected:       cur.Injected - s.prev.Injected,
		Delivered:      cur.Delivered - s.prev.Delivered,
		FlitsDelivered: cur.FlitsDelivered - s.prev.FlitsDelivered,
		LatencySamples: cur.LatencySamples - s.prev.LatencySamples,
		LatencySum:     cur.LatencySum - s.prev.LatencySum,
		Traversals:     cur.Traversals - s.prev.Traversals,
		PCReused:       cur.PCReused - s.prev.PCReused,
		Bypassed:       cur.Bypassed - s.prev.Bypassed,
	}
	if len(s.samples) < cap(s.samples) {
		s.samples = append(s.samples, sm)
	} else {
		s.samples[s.head] = sm
		s.head = (s.head + 1) % len(s.samples)
		s.dropped++
	}
	s.prev = cur
	s.from = now
}

// Samples returns the retained windows in chronological order (a copy; safe
// to keep). Reporting-path only: it allocates.
func (s *Series) Samples() []Sample {
	out := make([]Sample, 0, len(s.samples))
	out = append(out, s.samples[s.head:]...)
	out = append(out, s.samples[:s.head]...)
	return out
}
