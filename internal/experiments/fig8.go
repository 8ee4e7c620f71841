package experiments

import (
	"pseudocircuit/internal/core"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/vcalloc"
)

// Fig8Result holds overall performance (Fig. 8a: network latency reduction)
// and overall pseudo-circuit reusability (Fig. 8b) per benchmark and scheme.
//
// The paper normalizes to "the baseline system with O1TURN and dynamic VA
// ... which provides the best performance in the baseline system" and runs
// the schemes in that same configuration for the fair headline comparison;
// the configuration sweep is Fig. 9's job. We do the same: baseline and
// schemes both use O1TURN + dynamic VA here. (Normalizing DOR+static-VA
// scheme runs against the O1TURN+dynamic baseline — the other reading of
// §6.A — conflates the scheme's gain with the static-VA HoL penalty, whose
// size is an artifact of the traffic substrate; see EXPERIMENTS.md.)
type Fig8Result struct {
	Benchmarks []string
	Schemes    []string // Pseudo, Pseudo+S, Pseudo+B, Pseudo+S+B
	// Reduction[b][s] = 1 - latency(scheme)/latency(baseline).
	Reduction [][]float64
	// Reuse[b][s] is pseudo-circuit reusability: the share of all flit
	// traversals that rode a circuit. HeadReuse and HeadBypass are the shares
	// of header traversals that rode one and that also bypassed the buffer —
	// the hits that shorten a packet, since its body flits follow its header.
	Reuse, HeadReuse, HeadBypass [][]float64
	// BaseLatency[b] is the baseline's network latency in cycles and Hops[b][s]
	// the scheme's routers per packet: with the header rates they give the
	// saving the header hits predict, hops × (reuse + bypass) cycles, and the
	// rate a given reduction needs. Not rendered.
	BaseLatency []float64
	Hops        [][]float64
	// AvgReduction[s] averages over benchmarks (paper: 16% for Pseudo+S+B).
	AvgReduction                          []float64
	AvgReuse, AvgHeadReuse, AvgHeadBypass []float64
	// AvgMisses[c][s] is the share of header traversals in census row c
	// (censusRows: the hits, then why the rest missed), averaged over
	// benchmarks.
	AvgMisses [][]float64
}

// Fig8 runs the overall-performance experiment: per benchmark, the baseline
// and the four schemes.
func Fig8(o Options) Fig8Result {
	o = o.defaults()
	var points []point
	for _, b := range o.Benchmarks {
		for _, s := range core.Schemes {
			points = append(points, cmpPoint(b, s, routing.O1TURN, vcalloc.Dynamic))
		}
	}
	ns := len(schemeLabels) - 1
	res := Fig8Result{
		Benchmarks:    o.Benchmarks,
		Schemes:       schemeLabels[1:],
		AvgReduction:  make([]float64, ns),
		AvgReuse:      make([]float64, ns),
		AvgHeadReuse:  make([]float64, ns),
		AvgHeadBypass: make([]float64, ns),
	}
	for range censusRows {
		res.AvgMisses = append(res.AvgMisses, make([]float64, ns))
	}
	nb := float64(len(o.Benchmarks))
	rs, tot := o.runTotals(points)
	tots := rowsOf(tot, len(core.Schemes))
	for b, row := range rowsOf(rs, len(core.Schemes)) {
		reds, reuse, head, bypass := make([]float64, ns), make([]float64, ns), make([]float64, ns), make([]float64, ns)
		hops := make([]float64, ns)
		for i, r := range row[1:] {
			t := tots[b][i+1]
			reds[i], reuse[i], hops[i] = 1-r.AvgNetLatency/row[0].AvgNetLatency, r.Reusability, r.AvgHops
			head[i], bypass[i] = t.HeadReuseRate(), t.HeadBypassRate()
			res.AvgReduction[i] += reds[i] / nb
			res.AvgReuse[i] += reuse[i] / nb
			res.AvgHeadReuse[i] += head[i] / nb
			res.AvgHeadBypass[i] += bypass[i] / nb
			for c, share := range census(t) {
				res.AvgMisses[c][i] += share / nb
			}
		}
		res.Reduction = append(res.Reduction, reds)
		res.Reuse = append(res.Reuse, reuse)
		res.HeadReuse = append(res.HeadReuse, head)
		res.HeadBypass = append(res.HeadBypass, bypass)
		res.BaseLatency = append(res.BaseLatency, row[0].AvgNetLatency)
		res.Hops = append(res.Hops, hops)
	}
	return res
}

// Tables renders Fig. 8a and Fig. 8b, and beside 8b the header hit rates and
// why the other headers missed.
func (r Fig8Result) Tables() []Table {
	table := func(id, title string, cells [][]float64, avg []float64) Table {
		return seriesTable(id, title, "benchmark", r.Benchmarks, r.Schemes,
			func(b, s int) string { return pct(cells[b][s]) },
			"average", func(s int) string { return pct(avg[s]) })
	}
	return []Table{
		table("fig8a", "Overall latency reduction vs best baseline (O1TURN, dynamic VA)", r.Reduction, r.AvgReduction),
		table("fig8b", "Overall pseudo-circuit reusability", r.Reuse, r.AvgReuse),
		table("fig8b.head-reuse", "Header flits riding a pseudo-circuit", r.HeadReuse, r.AvgHeadReuse),
		table("fig8b.head-bypass", "Header flits bypassing the buffer", r.HeadBypass, r.AvgHeadBypass),
		seriesTable("fig8b.misses", "Header traversals by why they missed, average over benchmarks", "class",
			censusRows, r.Schemes, func(c, s int) string { return pct(r.AvgMisses[c][s]) }, "", nil),
	}
}
