package experiments

import (
	"fmt"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/traffic"
	"pseudocircuit/noc"
)

// Fig12Result holds the synthetic-workload load-latency curves (paper
// Fig. 12): average latency versus offered traffic for uniform random (UR),
// bit complement (BC) and bit permutation (BP, transpose) on an 8×8 mesh
// with XY routing and static VA, 5-flit packets, for the baseline and the
// four pseudo-circuit schemes. The paper reports ≈11% low-load improvement
// for UR and BP and ≈6% for BC, with all schemes converging at saturation.
type Fig12Result struct {
	Patterns []string
	Schemes  []string
	// Loads[p] is the swept injection rates (flits/node/cycle); Latency[p][s][l].
	Loads   [][]float64
	Latency [][][]float64
	// LowLoadImprovement[p][s] = 1 - latency(scheme)/latency(baseline) at
	// the lowest load.
	LowLoadImprovement [][]float64
	// At the lowest load, [p][s]: pseudo-circuit reusability over all flit
	// traversals, the shares of header traversals that rode a circuit and
	// that also bypassed the buffer, and routers per packet (not rendered).
	LowLoadReuse, LowLoadHeadReuse, LowLoadHeadBypass, LowLoadHops [][]float64
	// LowLoadMisses[p][c][s] is the share of header traversals in census row
	// c (censusRows) at the lowest load.
	LowLoadMisses [][][]float64
}

// fig12Patterns maps each pattern to its load sweep; the upper ends sit
// just past each pattern's saturation under XY on the 8×8 mesh (BP crosses
// the diagonal and saturates earliest, BC next, UR last — §6.B).
var fig12Patterns = []struct {
	name    string
	pattern traffic.Pattern
	loads   []float64
}{
	{"UR", traffic.UniformRandom, []float64{0.02, 0.06, 0.10, 0.14, 0.18, 0.22, 0.26}},
	{"BC", traffic.BitComplement, []float64{0.01, 0.03, 0.05, 0.07, 0.09, 0.11, 0.13}},
	{"BP", traffic.BitPermutation, []float64{0.01, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12}},
}

// Fig12 runs the synthetic load sweeps.
func Fig12(o Options) Fig12Result {
	o = o.defaults()
	var points []point
	for _, pc := range fig12Patterns {
		for _, s := range core.Schemes {
			for _, load := range pc.loads {
				points = append(points, meshPoint(s, noc.Synthetic{Pattern: pc.pattern, Rate: load, PacketSize: 5}))
			}
		}
	}
	res := Fig12Result{Schemes: schemeLabels}
	rs, tot := o.runTotals(points)
	for _, pc := range fig12Patterns {
		ns := len(core.Schemes)
		n := ns * len(pc.loads)
		var lat [][]float64
		reuse, head, bypass, hops := make([]float64, ns), make([]float64, ns), make([]float64, ns), make([]float64, ns)
		misses := make([][]float64, len(censusRows))
		for c := range misses {
			misses[c] = make([]float64, ns)
		}
		for si, row := range rowsOf(rs[:n], len(pc.loads)) {
			l := make([]float64, len(row))
			for li, r := range row {
				l[li] = r.AvgLatency
			}
			lat = append(lat, l)
			t := tot[si*len(pc.loads)] // the scheme's lowest load
			reuse[si], head[si], bypass[si], hops[si] = row[0].Reusability, t.HeadReuseRate(), t.HeadBypassRate(), row[0].AvgHops
			for c, share := range census(t) {
				misses[c][si] = share
			}
		}
		rs, tot = rs[n:], tot[n:]
		impr := make([]float64, len(lat))
		for si := range lat {
			impr[si] = 1 - lat[si][0]/lat[0][0]
		}
		res.Patterns = append(res.Patterns, pc.name)
		res.Loads = append(res.Loads, pc.loads)
		res.Latency = append(res.Latency, lat)
		res.LowLoadImprovement = append(res.LowLoadImprovement, impr)
		res.LowLoadReuse = append(res.LowLoadReuse, reuse)
		res.LowLoadHeadReuse = append(res.LowLoadHeadReuse, head)
		res.LowLoadHeadBypass = append(res.LowLoadHeadBypass, bypass)
		res.LowLoadHops = append(res.LowLoadHops, hops)
		res.LowLoadMisses = append(res.LowLoadMisses, misses)
	}
	return res
}

// Tables renders one load-latency table per pattern, each followed by the
// pattern's hit rates at its lowest load and why the other headers missed.
func (r Fig12Result) Tables() []Table {
	var out []Table
	for pi, p := range r.Patterns {
		var loads []string
		for _, load := range r.Loads[pi] {
			loads = append(loads, fmt.Sprintf("%.2f", load))
		}
		id := fmt.Sprintf("fig12%c", 'a'+pi)
		out = append(out, seriesTable(id,
			fmt.Sprintf("Latency vs offered traffic, %s (8x8 mesh, XY, static VA)", p),
			"load (flits/node/cyc)", loads, r.Schemes,
			func(l, s int) string { return num(r.Latency[pi][s][l]) },
			"low-load gain", func(s int) string { return pct(r.LowLoadImprovement[pi][s]) }))
		rates := [][]float64{r.LowLoadReuse[pi], r.LowLoadHeadReuse[pi], r.LowLoadHeadBypass[pi]}
		out = append(out, seriesTable(id+".hits",
			fmt.Sprintf("Pseudo-circuit hit rates at load %s, %s", loads[0], p),
			"rate", []string{"reusability", "header reuse", "header bypass"}, r.Schemes,
			func(q, s int) string { return pct(rates[q][s]) }, "", nil))
		out = append(out, seriesTable(id+".misses",
			fmt.Sprintf("Header traversals by why they missed, at load %s, %s", loads[0], p),
			"class", censusRows, r.Schemes,
			func(c, s int) string { return pct(r.LowLoadMisses[pi][c][s]) }, "", nil))
	}
	return out
}
