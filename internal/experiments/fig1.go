package experiments

import (
	"pseudocircuit/internal/core"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/vcalloc"
)

// Fig1Result holds per-benchmark communication temporal locality (paper
// Fig. 1): end-to-end (same source-destination pair as the source's
// previous packet) versus crossbar-connection (same input-to-output
// connection as the previous packet through that router input port).
type Fig1Result struct {
	Benchmarks []string
	E2E        []float64
	Xbar       []float64
	AvgE2E     float64
	AvgXbar    float64
}

// Fig1 measures communication temporal locality on the baseline router (the
// property is intrinsic to the traffic, not the scheme) over the paper's
// benchmark set. The paper reports ≈22% end-to-end and up to ≈31% crossbar
// locality; the headline relationship is Xbar > E2E.
func Fig1(o Options) Fig1Result {
	o = o.defaults()
	var points []point
	for _, b := range o.Benchmarks {
		points = append(points, cmpPoint(b, core.Baseline, routing.XY, vcalloc.Dynamic))
	}
	res := Fig1Result{Benchmarks: o.Benchmarks}
	for _, r := range o.run(points) {
		res.E2E = append(res.E2E, r.E2ELocality)
		res.Xbar = append(res.Xbar, r.XbarLocality)
		res.AvgE2E += r.E2ELocality
		res.AvgXbar += r.XbarLocality
	}
	res.AvgE2E /= float64(len(o.Benchmarks))
	res.AvgXbar /= float64(len(o.Benchmarks))
	return res
}

// Tables renders the figure.
func (r Fig1Result) Tables() []Table {
	cols := [][]float64{r.E2E, r.Xbar}
	avg := []float64{r.AvgE2E, r.AvgXbar}
	return []Table{seriesTable("fig1", "Communication temporal locality (end-to-end vs crossbar connection)",
		"benchmark", r.Benchmarks, []string{"end-to-end", "crossbar"},
		func(b, s int) string { return pct(cols[s][b]) },
		"average", func(s int) string { return pct(avg[s]) })}
}
