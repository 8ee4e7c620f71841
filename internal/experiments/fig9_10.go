package experiments

import (
	"fmt"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/vcalloc"
)

// GridResult holds the routing-algorithm × VA-policy sweep behind Fig. 9
// (network latency reduction) and Fig. 10 (pseudo-circuit reusability):
// for each benchmark and scheme, all six combinations of {XY, YX, O1TURN}
// and {static, dynamic} VA. Each combination is normalized against the
// same combination's no-scheme baseline, isolating the pseudo-circuit
// gain from the combination's intrinsic performance (see Fig8Result's
// normalization note).
type GridResult struct {
	Benchmarks []string
	Schemes    []string // Pseudo .. Pseudo+S+B
	Combos     []string // "staticVA XY", ...
	// Reduction[b][s][c] and Reuse[b][s][c].
	Reduction [][][]float64
	Reuse     [][][]float64
}

type combo struct {
	algo routing.Algorithm
	pol  vcalloc.Policy
}

var gridCombos = []combo{
	{routing.XY, vcalloc.Static},
	{routing.YX, vcalloc.Static},
	{routing.O1TURN, vcalloc.Static},
	{routing.XY, vcalloc.Dynamic},
	{routing.YX, vcalloc.Dynamic},
	{routing.O1TURN, vcalloc.Dynamic},
}

func comboLabel(c combo) string {
	return fmt.Sprintf("%v %v", c.pol, c.algo)
}

// Fig9And10 runs the full grid: per benchmark, the baseline reference and
// the four schemes under each of the 6 combos. It is the most expensive
// experiment; shrink Options.Benchmarks or Measure for quick runs.
func Fig9And10(o Options) GridResult {
	o = o.defaults()
	res := GridResult{Benchmarks: o.Benchmarks, Schemes: schemeLabels[1:]}
	for _, c := range gridCombos {
		res.Combos = append(res.Combos, comboLabel(c))
	}
	var points []point
	for _, b := range o.Benchmarks {
		for _, s := range core.Schemes {
			for _, c := range gridCombos {
				points = append(points, cmpPoint(b, s, c.algo, c.pol))
			}
		}
	}
	// One row of combos per (benchmark, scheme); a benchmark's first row is
	// its baseline.
	for _, rows := range rowsOf(rowsOf(o.run(points), len(gridCombos)), len(core.Schemes)) {
		var red, reuse [][]float64
		for _, row := range rows[1:] {
			rd, ru := make([]float64, len(row)), make([]float64, len(row))
			for ci, r := range row {
				rd[ci] = 1 - r.AvgNetLatency/rows[0][ci].AvgNetLatency
				ru[ci] = r.Reusability
			}
			red, reuse = append(red, rd), append(reuse, ru)
		}
		res.Reduction = append(res.Reduction, red)
		res.Reuse = append(res.Reuse, reuse)
	}
	return res
}

// Tables renders one latency-reduction table (Fig. 9) and one reusability
// table (Fig. 10) per scheme, matching the paper's four sub-figures each.
func (r GridResult) Tables() []Table {
	var out []Table
	for si, s := range r.Schemes {
		table := func(id, title string, cells [][][]float64) Table {
			return seriesTable(fmt.Sprintf("%s.%d", id, si+1), title+", "+s, "benchmark", r.Benchmarks, r.Combos,
				func(b, c int) string { return pct(cells[b][si][c]) }, "", nil)
		}
		out = append(out,
			table("fig9", "Network latency reduction", r.Reduction),
			table("fig10", "Pseudo-circuit reusability", r.Reuse))
	}
	return out
}

// AvgOverBenchmarks returns mean latency reduction and reusability per
// (scheme, combo) — the aggregates tests assert on.
func (r GridResult) AvgOverBenchmarks() (red, reuse [][]float64) {
	nb := float64(len(r.Benchmarks))
	red = make([][]float64, len(r.Schemes))
	reuse = make([][]float64, len(r.Schemes))
	for si := range r.Schemes {
		red[si] = make([]float64, len(r.Combos))
		reuse[si] = make([]float64, len(r.Combos))
		for ci := range r.Combos {
			for bi := range r.Benchmarks {
				red[si][ci] += r.Reduction[bi][si][ci] / nb
				reuse[si][ci] += r.Reuse[bi][si][ci] / nb
			}
		}
	}
	return red, reuse
}
