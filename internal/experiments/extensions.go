package experiments

import (
	"context"
	"fmt"

	"pseudocircuit/internal/cmp"
	"pseudocircuit/internal/core"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/traffic"
	"pseudocircuit/internal/vcalloc"
	"pseudocircuit/noc"
)

// SystemImpactResult addresses the paper's stated future work (§8):
// "integrate our design in a full system simulator to evaluate the overall
// system performance such as IPC". With the self-throttling MSHR model,
// the system-level effect of the network shows up as average L1-miss
// latency and the fraction of core-cycles stalled on full MSHRs; both are
// reported per benchmark for the baseline and Pseudo+S+B.
type SystemImpactResult struct {
	Benchmarks []string
	// BaseMissLat / PSBMissLat in cycles; BaseStall / PSBStall fractions.
	BaseMissLat []float64
	PSBMissLat  []float64
	BaseStall   []float64
	PSBStall    []float64
}

// SystemImpact runs the system-level extension experiment.
func SystemImpact(o Options) SystemImpactResult {
	o = o.defaults()
	var points []point
	for _, b := range o.Benchmarks {
		for _, s := range []core.Scheme{core.Baseline, core.PseudoSB} {
			points = append(points, cmpPoint(b, s, routing.XY, vcalloc.Static))
		}
	}
	missLat, stall := make([]float64, len(points)), make([]float64, len(points))
	o.each(points, func(i int, e noc.Experiment, n *noc.Network, wl noc.Workload) {
		w := wl.(*cmp.Workload)
		e.RunWindows(context.Background(), n, w, nil, 0, func(n *noc.Network) {
			if int(n.Now()) == e.Warmup {
				w.ResetSystemStats()
			}
		}) // never cancelled; the figures are the workload's
		missLat[i], stall[i] = w.AvgMissLatency(), w.StallFraction()
	})
	res := SystemImpactResult{Benchmarks: o.Benchmarks}
	for i := 0; i < len(points); i += 2 {
		res.BaseMissLat = append(res.BaseMissLat, missLat[i])
		res.PSBMissLat = append(res.PSBMissLat, missLat[i+1])
		res.BaseStall = append(res.BaseStall, stall[i])
		res.PSBStall = append(res.PSBStall, stall[i+1])
	}
	return res
}

// Tables renders the extension.
func (r SystemImpactResult) Tables() []Table {
	t := Table{
		ID:     "ext-system",
		Title:  "System impact (extension; paper §8 future work): L1-miss latency and MSHR-stall fraction",
		Header: []string{"benchmark", "base miss lat", "psb miss lat", "miss lat gain", "base stall", "psb stall"},
	}
	for i, b := range r.Benchmarks {
		t.Rows = append(t.Rows, []string{
			b,
			num(r.BaseMissLat[i]), num(r.PSBMissLat[i]),
			pct(1 - r.PSBMissLat[i]/r.BaseMissLat[i]),
			pct(r.BaseStall[i]), pct(r.PSBStall[i]),
		})
	}
	return []Table{t}
}

// ReuseVsLoadResult quantifies the paper's §8 observation that "the
// pseudo-circuit hardly reduces communication latency in high-load traffic
// due to contentions between flits": pseudo-circuit reusability and latency
// gain versus offered load on the synthetic platform.
type ReuseVsLoadResult struct {
	Loads  []float64
	Reuse  []float64 // Pseudo+S+B reusability at each load
	Bypass []float64
	Gain   []float64 // latency reduction vs baseline at each load
}

// ReuseVsLoad runs the high-load extension experiment (uniform random on
// the 8×8 mesh, XY + static VA).
func ReuseVsLoad(o Options) ReuseVsLoadResult {
	o = o.defaults()
	res := ReuseVsLoadResult{Loads: []float64{0.02, 0.06, 0.10, 0.14, 0.18, 0.22}}
	var points []point
	for _, load := range res.Loads {
		for _, s := range []core.Scheme{core.Baseline, core.PseudoSB} {
			points = append(points, meshPoint(s, noc.Synthetic{Pattern: traffic.UniformRandom, Rate: load}))
		}
	}
	for _, row := range rowsOf(o.run(points), 2) {
		base, psb := row[0], row[1]
		res.Reuse = append(res.Reuse, psb.Reusability)
		res.Bypass = append(res.Bypass, psb.BypassRate)
		res.Gain = append(res.Gain, 1-psb.AvgLatency/base.AvgLatency)
	}
	return res
}

// Tables renders the extension.
func (r ReuseVsLoadResult) Tables() []Table {
	t := Table{
		ID:     "ext-load",
		Title:  "Reusability and gain vs offered load (extension; paper §8 high-load limitation)",
		Header: []string{"load", "reusability", "bypass rate", "latency gain"},
	}
	for i, l := range r.Loads {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", l), pct(r.Reuse[i]), pct(r.Bypass[i]), pct(r.Gain[i]),
		})
	}
	return []Table{t}
}
