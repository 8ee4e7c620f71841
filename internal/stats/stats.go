// Package stats collects the measurements the paper reports: packet latency,
// throughput, pseudo-circuit reusability (§6, Fig. 8b/10), buffer bypass
// rate, communication temporal locality (Fig. 1), and hop counts.
package stats

import "pseudocircuit/internal/sim"

// Network accumulates what the NIs and the kernel's main phase measure over
// one simulation run: packets, latency, end-to-end locality, faults and
// reliability. Router events are counted in the Registry and nowhere else.
// It is not safe for concurrent use; a simulation owns one.
type Network struct {
	// Packets.
	PacketsInjected  uint64
	PacketsDelivered uint64
	FlitsDelivered   uint64

	// Latency sums over measured delivered packets, in cycles. Latency is
	// measured from packet creation (entering the source queue) to
	// tail-flit ejection; NetLatency from header injection into the
	// network to tail ejection (excludes source queueing). Packets injected
	// before the measurement window started are delivered but not sampled.
	LatencySamples uint64
	LatencySum     uint64
	NetLatencySum  uint64
	HopSum         uint64

	// LatencyHist collects the measured packet-latency distribution for
	// percentile reporting.
	LatencyHist Histogram

	// End-to-end communication temporal locality (Fig. 1).
	E2ESame uint64 // packets whose (src,dst) repeats the source's previous packet
	E2EPrev uint64 // packets with a previous packet at the source

	// Fault accounting (deterministic fault schedules).
	FaultEvents       uint64 // schedule events applied (down and up)
	PacketsDropped    uint64 // packets killed by a fault (purged everywhere)
	FlitsDropped      uint64 // flits recycled by fault purges
	PacketsRerouted   uint64 // packets salvaged in place under the reroute policy
	PCFaultTerminated uint64 // pseudo-circuits torn down because their link died

	// Reliability accounting (end-to-end reliable delivery; zero when the
	// reliability layer is off). All five are mutated on the kernel's main
	// goroutine only.
	PacketsRetransmitted uint64 // sender timeout re-injections
	AcksSent             uint64 // acknowledgement packets injected by receiver NIs
	AcksReceived         uint64 // acknowledgement packets ejected at sender NIs
	DuplicatesDropped    uint64 // already-delivered sequenced packets discarded (and re-acked)
	DeliveryFailed       uint64 // retry budgets exhausted: the flow gave the packet up

	// Warmup handling: events before Reset are discarded by reassigning the
	// struct; this field records the measurement start for rate reporting.
	MeasuredFrom sim.Cycle
	MeasuredTo   sim.Cycle
}

// Reset clears all counters, marking the start of the measurement phase.
// MeasuredTo is set to now as well, so the measurement window is empty (not
// negative) until the first post-reset cycle completes and rate reporting
// never divides by a zero- or negative-length window.
func (n *Network) Reset(now sim.Cycle) {
	*n = Network{MeasuredFrom: now, MeasuredTo: now}
}

// Window returns the measured window length in cycles, never negative.
func (n *Network) Window() sim.Cycle {
	if n.MeasuredTo <= n.MeasuredFrom {
		return 0
	}
	return n.MeasuredTo - n.MeasuredFrom
}

// RecordDelivery accounts a fully ejected packet. Only measured packets
// (injected inside the measurement window) contribute latency samples.
func (n *Network) RecordDelivery(latency, netLatency sim.Cycle, flits, hops int, measured bool) {
	n.PacketsDelivered++
	n.FlitsDelivered += uint64(flits)
	if !measured {
		return
	}
	n.LatencySamples++
	n.LatencySum += uint64(latency)
	n.NetLatencySum += uint64(netLatency)
	n.HopSum += uint64(hops)
	n.LatencyHist.Add(uint64(latency))
}

// AvgLatency returns mean packet latency (creation → tail ejection).
func (n *Network) AvgLatency() float64 {
	if n.LatencySamples == 0 {
		return 0
	}
	return float64(n.LatencySum) / float64(n.LatencySamples)
}

// AvgNetLatency returns mean network latency (injection → tail ejection).
func (n *Network) AvgNetLatency() float64 {
	if n.LatencySamples == 0 {
		return 0
	}
	return float64(n.NetLatencySum) / float64(n.LatencySamples)
}

// AvgHops returns mean router hops per delivered packet.
func (n *Network) AvgHops() float64 {
	if n.LatencySamples == 0 {
		return 0
	}
	return float64(n.HopSum) / float64(n.LatencySamples)
}

// E2ELocality returns end-to-end communication temporal locality (Fig. 1):
// the fraction of packets repeating their source's previous destination.
func (n *Network) E2ELocality() float64 {
	if n.E2EPrev == 0 {
		return 0
	}
	return float64(n.E2ESame) / float64(n.E2EPrev)
}

// Throughput returns delivered flits per node per cycle over the measured
// window, for nodes terminals. A zero-length window reports 0, never NaN/Inf.
func (n *Network) Throughput(nodes int) float64 {
	cycles := n.Window()
	if cycles == 0 || nodes == 0 {
		return 0
	}
	return float64(n.FlitsDelivered) / float64(cycles) / float64(nodes)
}

// InjectionRate returns injected packets per node per cycle over the
// measured window, with the same zero-window guard as Throughput.
func (n *Network) InjectionRate(nodes int) float64 {
	cycles := n.Window()
	if cycles == 0 || nodes == 0 {
		return 0
	}
	return float64(n.PacketsInjected) / float64(cycles) / float64(nodes)
}
