package experiments

import (
	"fmt"

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

	// Fig. 12 at each pattern's lowest load under the readings of
	// fig12Readings: Fig12Gain[p][r] is Pseudo+S+B's latency gain over a
	// Baseline with the same static key, Fig12HeadReuse and Fig12HeadBypass
	// its header hit rates.
	Fig12Patterns, Fig12Readings               []string
	Fig12Loads                                 []float64
	Fig12Gain, Fig12HeadReuse, Fig12HeadBypass [][]float64
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

// fig12Readings are the paper's reading and the two flips of DESIGN.md §7
// that move most at CMP load, rerun where hit rates are highest: Fig. 12's
// fixed-pair patterns.
var fig12Readings = []ablation{
	{name: "paper", flip: func(*core.Options) {}},
	{name: "PC defers to SA requests", flip: func(o *core.Options) { o.PCDefersToSA = true }},
	{name: "static VA keyed by flow", flip: func(*core.Options) {}, staticKey: vcalloc.KeyFlow},
}

// Ablations runs every knob flip with Pseudo+S+B, XY + static VA. All four
// compare against the same paper-side configuration, simulated once per
// benchmark. Then, per Fig. 12 pattern at its lowest load, each of
// fig12Readings runs a Baseline and a Pseudo+S+B.
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
	cmpPoints := len(points)
	for _, pc := range fig12Patterns {
		res.Fig12Patterns = append(res.Fig12Patterns, pc.name)
		res.Fig12Loads = append(res.Fig12Loads, pc.loads[0])
		syn := noc.Synthetic{Pattern: pc.pattern, Rate: pc.loads[0], PacketSize: 5}
		for _, rd := range fig12Readings {
			opts := paperOpts
			rd.flip(&opts)
			base, psb := meshPoint(core.Baseline, syn), meshPoint(core.PseudoSB, syn)
			base.StaticKey = rd.staticKey
			psb.Opts, psb.StaticKey = &opts, rd.staticKey
			points = append(points, base, psb)
		}
	}
	for _, rd := range fig12Readings {
		res.Fig12Readings = append(res.Fig12Readings, rd.name)
	}
	all, tot := o.runTotals(points)
	// One row of benchmarks per variant, the paper's first.
	avg := func(row []noc.Result) (lat, reuse float64) {
		for _, r := range row {
			lat += r.AvgLatency
			reuse += r.Reusability
		}
		return lat / float64(len(row)), reuse / float64(len(row))
	}
	rows := rowsOf(all[:cmpPoints], len(o.Benchmarks))
	pLat, pReuse := avg(rows[0])
	for _, row := range rows[1:] {
		fLat, fReuse := avg(row)
		res.Paper = append(res.Paper, pLat)
		res.Flipped = append(res.Flipped, fLat)
		res.PaperReuse = append(res.PaperReuse, pReuse)
		res.FlippedReuse = append(res.FlippedReuse, fReuse)
	}
	// Per pattern, per reading: the Baseline, then Pseudo+S+B.
	all, tot = all[cmpPoints:], tot[cmpPoints:]
	for range fig12Patterns {
		var gain, head, bypass []float64
		for range fig12Readings {
			base, psb := all[0], all[1]
			gain = append(gain, 1-psb.AvgLatency/base.AvgLatency)
			head = append(head, tot[1].HeadReuseRate())
			bypass = append(bypass, tot[1].HeadBypassRate())
			all, tot = all[2:], tot[2:]
		}
		res.Fig12Gain = append(res.Fig12Gain, gain)
		res.Fig12HeadReuse = append(res.Fig12HeadReuse, head)
		res.Fig12HeadBypass = append(res.Fig12HeadBypass, bypass)
	}
	return res
}

// Tables renders the ablation study, then its Fig. 12 readings.
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
	f := Table{
		ID:     "ablations.fig12",
		Title:  "Fig. 12 at lowest load under each reading (Pseudo+S+B vs Baseline with the same static key, 8x8 mesh, XY)",
		Header: []string{"pattern", "load", "reading", "low-load gain", "header reuse", "header bypass"},
	}
	for pi, p := range r.Fig12Patterns {
		for ri, rd := range r.Fig12Readings {
			f.Rows = append(f.Rows, []string{
				p, fmt.Sprintf("%.2f", r.Fig12Loads[pi]), rd,
				pct(r.Fig12Gain[pi][ri]), pct(r.Fig12HeadReuse[pi][ri]), pct(r.Fig12HeadBypass[pi][ri]),
			})
		}
	}
	return []Table{t, f}
}
