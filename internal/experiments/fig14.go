package experiments

import (
	"fmt"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/vcalloc"
	"pseudocircuit/noc"
)

// Fig14Result compares the pseudo-circuit scheme with Express Virtual
// Channels (paper Fig. 14) on an 8×8 mesh and a 4×4 concentrated mesh:
// per-benchmark latency of Baseline, EVC (dynamic, l_max = 2, 2 EVCs + 2
// NVCs) and Pseudo+S+B, normalized to each topology's baseline. The paper's
// finding: EVC helps on the mesh but shows no average improvement on the
// CMesh (too few routers per dimension, and the reserved EVCs shrink the
// usable VC pool), while the pseudo-circuit scheme is topology-independent.
type Fig14Result struct {
	Topologies []string
	Benchmarks []string
	Variants   []string // Baseline, EVC, Pseudo+S+B
	// Normalized[t][b][v] = latency / latency(baseline on that topology).
	Normalized [][][]float64
	// Avg[t][v] averages over benchmarks.
	Avg [][]float64
}

// Fig14 runs the EVC comparison.
func Fig14(o Options) Fig14Result {
	o = o.defaults()
	variants := []struct {
		label  string
		scheme core.Scheme
		evc    bool
	}{
		{"Baseline", core.Baseline, false}, // the reference: first
		{"EVC", core.Baseline, true},
		{"Pseudo+S+B", core.PseudoSB, false},
	}
	res := Fig14Result{Benchmarks: o.Benchmarks}
	for _, v := range variants {
		res.Variants = append(res.Variants, v.label)
	}
	var points []point
	for _, tc := range []struct {
		name string
		topo noc.Topology
	}{
		{"Mesh", topology.NewMesh(8, 8)},
		{"CMesh", topology.NewCMesh(4, 4, 4)},
	} {
		res.Topologies = append(res.Topologies, tc.name)
		for _, b := range o.Benchmarks {
			for _, v := range variants {
				p := cmpPoint(b, v.scheme, routing.XY, vcalloc.Dynamic)
				p.Topology, p.UseEVC = tc.topo, v.evc
				points = append(points, p)
			}
		}
	}
	nb := len(o.Benchmarks)
	for _, perTopo := range rowsOf(rowsOf(o.run(points), len(variants)), nb) {
		var perBench [][]float64
		avg := make([]float64, len(variants))
		for _, row := range perTopo {
			nrm := make([]float64, len(row))
			for v, r := range row {
				nrm[v] = r.AvgNetLatency / row[0].AvgNetLatency
				avg[v] += nrm[v] / float64(nb)
			}
			perBench = append(perBench, nrm)
		}
		res.Normalized = append(res.Normalized, perBench)
		res.Avg = append(res.Avg, avg)
	}
	return res
}

// Tables renders Fig. 14 (a) mesh and (b) concentrated mesh.
func (r Fig14Result) Tables() []Table {
	var out []Table
	for ti, top := range r.Topologies {
		out = append(out, seriesTable(fmt.Sprintf("fig14%c", 'a'+ti),
			fmt.Sprintf("Normalized latency vs EVC, %s (XY, dynamic VA)", top),
			"benchmark", r.Benchmarks, r.Variants,
			func(b, v int) string { return norm(r.Normalized[ti][b][v]) },
			"average", func(v int) string { return norm(r.Avg[ti][v]) }))
	}
	return out
}
