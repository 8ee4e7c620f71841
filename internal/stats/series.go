package stats

import (
	"pseudocircuit/internal/obs"
	"pseudocircuit/internal/sim"
)

// Sample is one closed window of the cycle-windowed time series: the deltas
// of the global counters over [From, To). Rates derived from it expose the
// transients a whole-run average hides (warmup convergence, injection bursts,
// pseudo-circuit reuse ramping up as circuits form). The tags are its JSONL
// wire form, a "window" line of the metrics export.
type Sample struct {
	From sim.Cycle `json:"from"`
	To   sim.Cycle `json:"to"`

	Injected       uint64 `json:"injected"`  // packets entering source queues
	Delivered      uint64 `json:"delivered"` // packets fully ejected
	FlitsDelivered uint64 `json:"flits_delivered"`
	LatencySamples uint64 `json:"latency_samples"`
	LatencySum     uint64 `json:"latency_sum"`
	Traversals     uint64 `json:"traversals"`
	PCReused       uint64 `json:"pc_reused"`
	Bypassed       uint64 `json:"bypassed"`
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

// Series records cycle-windowed samples of the network-wide counters into a
// bounded obs.Ring. The network ticks it once per cycle; every window
// cycles it closes a Sample, and only then are the router rows summed. All
// storage is preallocated, so the per-cycle path never allocates (the
// steady-state zero-alloc contract holds with the series enabled).
//
// The series spans warmup and measurement: Rebase (called when the counters
// are reset) closes the current partial window and restarts the baseline, so
// warmup windows stay in the ring and post-reset windows difference against
// the zeroed counters.
type Series struct {
	window int
	ring   obs.Ring[Sample]

	prev Sample    // cumulative counters at the last window boundary
	from sim.Cycle // start of the currently open window
}

// NewSeries returns a series with the given window length in cycles and ring
// capacity in windows. Both must be positive.
func NewSeries(window, capacity int) *Series {
	if window <= 0 {
		panic("stats: series window must be positive")
	}
	return &Series{window: window, ring: obs.NewRing[Sample](capacity)}
}

// Dropped returns how many closed windows were evicted by the ring bound.
func (s *Series) Dropped() uint64 { return s.ring.Dropped() }

// Len returns the number of retained samples.
func (s *Series) Len() int { return s.ring.Len() }

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
	s.ring.Push(sm)
	s.prev = cur
	s.from = now
}

// Samples returns the retained windows in chronological order (a copy; safe
// to keep). Reporting-path only: it allocates.
func (s *Series) Samples() []Sample { return s.ring.Values() }
