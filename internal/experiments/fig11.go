package experiments

import (
	"fmt"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/vcalloc"
	"pseudocircuit/noc"
)

// Fig11Result holds normalized router energy consumption per benchmark and
// scheme, for XY and YX routing with static VA (paper Fig. 11). Values are
// normalized to the same configuration's baseline; energy is normalized per
// delivered flit so small load differences between runs do not skew the
// comparison. The paper's finding: schemes without buffer bypassing save
// almost nothing; with buffer bypassing energy drops ≈20%.
type Fig11Result struct {
	Benchmarks []string
	Schemes    []string // Baseline..Pseudo+S+B (baseline = 1.0)
	// Normalized[a][b][s]: a = 0 (XY), 1 (YX).
	Normalized [][][]float64
	// Avg[a][s] averages over benchmarks.
	Avg [][]float64
}

// Fig11 runs the energy experiment.
func Fig11(o Options) Fig11Result {
	o = o.defaults()
	algos := []routing.Algorithm{routing.XY, routing.YX}
	var points []point
	for _, algo := range algos {
		for _, b := range o.Benchmarks {
			for _, s := range core.Schemes {
				points = append(points, cmpPoint(b, s, algo, vcalloc.Static))
			}
		}
	}
	res := Fig11Result{Benchmarks: o.Benchmarks, Schemes: schemeLabels}
	perFlit := func(r noc.Result) float64 { return r.EnergyPJ / float64(max(r.FlitsDelivered, 1)) }
	nb := len(o.Benchmarks)
	for _, perAlgo := range rowsOf(rowsOf(o.run(points), len(core.Schemes)), nb) {
		var normalized [][]float64
		avg := make([]float64, len(core.Schemes))
		for _, row := range perAlgo {
			nrm := make([]float64, len(row))
			for si, r := range row {
				nrm[si] = perFlit(r) / perFlit(row[0])
				avg[si] += nrm[si] / float64(nb)
			}
			normalized = append(normalized, nrm)
		}
		res.Normalized = append(res.Normalized, normalized)
		res.Avg = append(res.Avg, avg)
	}
	return res
}

// Tables renders Fig. 11 (a) XY and (b) YX.
func (r Fig11Result) Tables() []Table {
	var out []Table
	for ai, lab := range []string{"XY", "YX"} {
		out = append(out, seriesTable(fmt.Sprintf("fig11%c", 'a'+ai),
			fmt.Sprintf("Normalized router energy, %s + static VA", lab),
			"benchmark", r.Benchmarks, r.Schemes,
			func(b, s int) string { return norm(r.Normalized[ai][b][s]) },
			"average", func(s int) string { return norm(r.Avg[ai][s]) }))
	}
	return out
}
