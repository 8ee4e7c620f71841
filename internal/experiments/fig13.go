package experiments

import (
	"pseudocircuit/internal/core"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/vcalloc"
	"pseudocircuit/noc"
)

// Fig13Result holds the topology study (paper Fig. 13): communication
// latency of every scheme on Mesh, CMesh, MECS and FBFLY, normalized to the
// baseline mesh, for the fma3d trace with DOR and static VA. The paper's
// findings: the pseudo-circuit scheme reduces per-hop delay on every
// topology (up to ≈10%) while the express topologies reduce hop count, and
// the combination exceeds 20–30% total reduction.
type Fig13Result struct {
	Topologies []string
	Schemes    []string
	Benchmark  string
	// Normalized[t][s] = latency / latency(mesh baseline).
	Normalized [][]float64
	// AvgHops[t] recorded per topology (baseline run) for context.
	AvgHops []float64
}

// Fig13 runs the topology comparison. All four topologies host the 64-node
// CMP: the mesh as an 8×8 grid (one terminal per router), the concentrated
// topologies as 4×4 grids with 4 terminals per router.
func Fig13(o Options) Fig13Result {
	o = o.defaults()
	res := Fig13Result{Schemes: schemeLabels, Benchmark: "fma3d"}
	var points []point
	for _, tc := range []struct {
		name string
		topo noc.Topology
	}{
		{"Mesh", topology.NewMesh(8, 8)},
		{"CMesh", topology.NewCMesh(4, 4, 4)},
		{"MECS", topology.NewMECS(4, 4, 4)},
		{"FBFLY", topology.NewFBFly(4, 4, 4)},
	} {
		res.Topologies = append(res.Topologies, tc.name)
		for _, s := range core.Schemes {
			p := cmpPoint(res.Benchmark, s, routing.XY, vcalloc.Static)
			p.Topology = tc.topo
			points = append(points, p)
		}
	}
	rs := o.run(points)
	for _, row := range rowsOf(rs, len(core.Schemes)) {
		nrm := make([]float64, len(row))
		for si, r := range row {
			nrm[si] = r.AvgNetLatency / rs[0].AvgNetLatency
		}
		res.Normalized = append(res.Normalized, nrm)
		res.AvgHops = append(res.AvgHops, row[0].AvgHops)
	}
	return res
}

// Tables renders the figure.
func (r Fig13Result) Tables() []Table {
	return []Table{seriesTable("fig13",
		"Normalized latency by topology and scheme ("+r.Benchmark+", DOR + static VA; 1.0 = mesh baseline)",
		"topology", r.Topologies, append([]string{"avg hops"}, r.Schemes...),
		func(t, s int) string {
			if s == 0 {
				return num(r.AvgHops[t])
			}
			return norm(r.Normalized[t][s-1])
		}, "", nil)}
}
