package experiments

import (
	"pseudocircuit/internal/core"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/traffic"
	"pseudocircuit/noc"
)

// Fig6Result reports the measured per-hop router delay for each pipeline
// (paper Fig. 6): baseline 3 cycles (BW | VA+SA | ST), pseudo-circuit hit 2
// cycles (BW | PC+ST), pseudo-circuit hit with buffer bypassing 1 cycle
// (PC+ST). Link traversal adds 1 cycle per hop on the unit mesh.
type Fig6Result struct {
	Schemes []string
	// PerHop is the steady-state router delay per hop in cycles, measured
	// by differencing the latency of two path lengths on an otherwise idle
	// network with a warmed-up pseudo-circuit path.
	PerHop []float64
}

// Fig6 measures per-hop delay with a single periodic single-flit flow along
// one mesh row: after warmup the flow's crossbar connections are stable, so
// every hop hits the pseudo-circuit (and the bypass latch when enabled).
// Per scheme it differences the latency to nodes 2 and 6, which sit 2 and 6
// hops along row 0, isolating the per-hop router+link delay, and subtracts
// the 1 cycle of link traversal. A lone flow needs no more than 400 warmup
// and 2000 measured cycles, whatever the options ask for.
func Fig6(o Options) Fig6Result {
	o = o.defaults()
	o.Warmup, o.Measure = 400, 2000
	res := Fig6Result{Schemes: []string{"Baseline", "Pseudo / Pseudo+S", "Pseudo+B / Pseudo+S+B"}}
	var points []point
	for _, s := range []core.Scheme{core.Baseline, core.Pseudo, core.PseudoB} {
		for _, dst := range []int{2, 6} {
			p := meshPoint(s, noc.Synthetic{})
			p.traffic = func(noc.Experiment) noc.Workload {
				return traffic.NewFlows(traffic.Flow{Src: 0, Dst: dst, Size: 1, Period: 25, Start: sim.Cycle(0)})
			}
			points = append(points, p)
		}
	}
	for _, lat := range rowsOf(o.run(points), 2) {
		res.PerHop = append(res.PerHop, (lat[1].AvgNetLatency-lat[0].AvgNetLatency)/4-1)
	}
	return res
}

// Tables renders the figure.
func (r Fig6Result) Tables() []Table {
	return []Table{seriesTable("fig6", "Per-hop router delay by pipeline (cycles; paper: 3 / 2 / 1)",
		"pipeline", r.Schemes, []string{"router cycles/hop"},
		func(i, _ int) string { return num(r.PerHop[i]) }, "", nil)}
}
