package experiments

import (
	"pseudocircuit/internal/core"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/vcalloc"
	"pseudocircuit/noc"
)

// AblationResult compares the paper's design choices against their
// alternatives (DESIGN.md §7) on the CMP platform: average latency and
// reusability with the choice as published vs flipped.
type AblationResult struct {
	Names []string
	// Paper[i] and Flipped[i] are average latencies (cycles) over the
	// benchmark subset; Reuse holds the matching reusabilities.
	Paper        []float64
	Flipped      []float64
	PaperReuse   []float64
	FlippedReuse []float64
}

// ablation defines one knob flip.
type ablation struct {
	name string
	flip func(*core.Options)
	// policy/alg overrides for ablations about VA keys.
	staticKey vcalloc.StaticKey
}

func ablations() []ablation {
	return []ablation{
		{name: "terminate PC on zero credit (paper) vs keep",
			flip: func(o *core.Options) { o.TerminateOnZeroCredit = false }},
		{name: "SA grants preempt PC (default) vs PC defers to SA requests",
			flip: func(o *core.Options) { o.PCDefersToSA = true }},
		{name: "no speculation to congested outputs (paper) vs allow",
			flip: func(o *core.Options) { o.SpeculateToCongested = true }},
		{name: "static VA keyed by destination (paper) vs flow",
			flip:      func(o *core.Options) {},
			staticKey: vcalloc.KeyFlow},
	}
}

// Ablations runs every knob flip with Pseudo+S+B, XY + static VA. All four
// compare against the same paper-side configuration, simulated once per
// benchmark.
func Ablations(o Options) AblationResult {
	o = o.defaults()
	variant := func(opts core.Options, key vcalloc.StaticKey) []point {
		var ps []point
		for _, b := range o.Benchmarks {
			p := cmpPoint(b, opts.Scheme, routing.XY, vcalloc.Static)
			p.Opts, p.StaticKey = &opts, key
			ps = append(ps, p)
		}
		return ps
	}
	paperOpts := core.DefaultOptions(core.PseudoSB)
	points := variant(paperOpts, vcalloc.KeyDestination)
	var res AblationResult
	for _, a := range ablations() {
		res.Names = append(res.Names, a.name)
		flipOpts := paperOpts
		a.flip(&flipOpts)
		points = append(points, variant(flipOpts, a.staticKey)...)
	}
	// One row of benchmarks per variant, the paper's first.
	avg := func(row []noc.Result) (lat, reuse float64) {
		for _, r := range row {
			lat += r.AvgLatency
			reuse += r.Reusability
		}
		return lat / float64(len(row)), reuse / float64(len(row))
	}
	rows := rowsOf(o.run(points), len(o.Benchmarks))
	pLat, pReuse := avg(rows[0])
	for _, row := range rows[1:] {
		fLat, fReuse := avg(row)
		res.Paper = append(res.Paper, pLat)
		res.Flipped = append(res.Flipped, fLat)
		res.PaperReuse = append(res.PaperReuse, pReuse)
		res.FlippedReuse = append(res.FlippedReuse, fReuse)
	}
	return res
}

// Tables renders the ablation study.
func (r AblationResult) Tables() []Table {
	t := Table{
		ID:     "ablations",
		Title:  "Design-choice ablations (Pseudo+S+B, XY + static VA, CMP average)",
		Header: []string{"choice", "paper lat", "flipped lat", "paper reuse", "flipped reuse"},
	}
	for i, name := range r.Names {
		t.Rows = append(t.Rows, []string{
			name, num(r.Paper[i]), num(r.Flipped[i]), pct(r.PaperReuse[i]), pct(r.FlippedReuse[i]),
		})
	}
	return []Table{t}
}
