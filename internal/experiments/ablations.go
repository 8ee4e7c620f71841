package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/vcalloc"
	"pseudocircuit/noc"
)

// readings are the readings of the paper the model can still run, the
// paper's first (DESIGN.md §7). A reading is the key static VA hashes on:
// the router itself models one reading of §3.C and §4.A, and flow keying is
// a wire input (noc.Spec "staticKey": "flow"), not a router knob.
var readings = []struct {
	name string
	key  vcalloc.StaticKey
}{
	{"paper", vcalloc.KeyDestination},
	{"static VA keyed by flow", vcalloc.KeyFlow},
}

// paperGains are the gains a reading is scored against, in AblationResult's
// gain order: Fig. 8's average reduction for Pseudo+S+B (16 %), then Fig. 12's
// low-load gains for UR, BC and BP (≈ 11, 6, 11 %).
var paperGains = []float64{0.16, 0.11, 0.06, 0.11}

// ablationSeeds is how many seeds, Options.Seed upwards, every reading runs.
// A reading beats the paper on a figure only by more than the paper row's
// spread over them.
const ablationSeeds = 3

// AblationResult scores each reading against the paper's gains. Gain g = 0 is
// Fig. 8's average reduction in Fig. 8's own configuration (CMP, O1TURN +
// dynamic VA, against its own Baseline); g ≥ 1 is Fig. 12's gain for one
// pattern at its lowest load (against a Baseline with the same static key).
// Gain[r][s][g] is reading r's gain at seed Options.Seed+s and HeadReuse the
// share of Pseudo+S+B's header traversals that rode a circuit there.
type AblationResult struct {
	Readings, Gains []string
	Gain, HeadReuse [][][]float64
}

// Ablations runs, per seed, a Baseline and a Pseudo+S+B for each benchmark in
// Fig. 8's configuration, and per reading and seed the same pair for each
// Fig. 12 pattern at its lowest load. Fig. 8 runs dynamic VA, which never
// reads the static key, so every reading shares its Fig. 8 cells.
func Ablations(o Options) AblationResult {
	o = o.defaults()
	res := AblationResult{Gains: []string{"Fig. 8 avg"}}
	for _, pc := range fig12Patterns {
		res.Gains = append(res.Gains, fmt.Sprintf("%s %.2f", pc.name, pc.loads[0]))
	}
	var points []point
	pair := func(s int, key vcalloc.StaticKey, base, psb point) {
		base.Seed, base.StaticKey = uint64(s), key
		psb.Seed, psb.StaticKey = uint64(s), key
		points = append(points, base, psb)
	}
	for s := range ablationSeeds {
		for _, b := range o.Benchmarks {
			pair(s, vcalloc.KeyDestination, cmpPoint(b, core.Baseline, routing.O1TURN, vcalloc.Dynamic),
				cmpPoint(b, core.PseudoSB, routing.O1TURN, vcalloc.Dynamic))
		}
	}
	for _, rd := range readings {
		res.Readings = append(res.Readings, rd.name)
		for s := range ablationSeeds {
			for _, pc := range fig12Patterns {
				syn := noc.Synthetic{Pattern: pc.pattern, Rate: pc.loads[0], PacketSize: 5}
				pair(s, rd.key, meshPoint(core.Baseline, syn), meshPoint(core.PseudoSB, syn))
			}
		}
	}
	rs, tot := o.runTotals(points)
	// Accumulated as Fig8 and Fig12 do, so the paper row is their runs.
	nb := float64(len(o.Benchmarks))
	fig8Gain, fig8Head := make([]float64, ablationSeeds), make([]float64, ablationSeeds)
	for s := range ablationSeeds {
		for range o.Benchmarks {
			fig8Gain[s] += (1 - rs[1].AvgNetLatency/rs[0].AvgNetLatency) / nb
			fig8Head[s] += tot[1].HeadReuseRate() / nb
			rs, tot = rs[2:], tot[2:]
		}
	}
	for range readings {
		var gain, head [][]float64
		for s := range ablationSeeds {
			g, h := []float64{fig8Gain[s]}, []float64{fig8Head[s]}
			for range fig12Patterns {
				g = append(g, 1-rs[1].AvgLatency/rs[0].AvgLatency)
				h = append(h, tot[1].HeadReuseRate())
				rs, tot = rs[2:], tot[2:]
			}
			gain, head = append(gain, g), append(head, h)
		}
		res.Gain, res.HeadReuse = append(res.Gain, gain), append(res.HeadReuse, head)
	}
	return res
}

// terms returns reading r's |gain − paper| per gain at seed offset s.
func (r AblationResult) terms(reading, s int) []float64 {
	out := make([]float64, len(paperGains))
	for g, p := range paperGains {
		out[g] = math.Abs(r.Gain[reading][s][g] - p)
	}
	return out
}

// Score is reading r's largest |gain − paper| at the first seed.
func (r AblationResult) Score(reading int) float64 { return slices.Max(r.terms(reading, 0)) }

// figureTerms returns reading r's term per figure and seed: Fig. 8's, then
// the largest of Fig. 12's patterns'.
func (r AblationResult) figureTerms(reading int) [2][]float64 {
	var out [2][]float64
	for s := range r.Gain[reading] {
		t := r.terms(reading, s)
		out[0], out[1] = append(out[0], t[0]), append(out[1], slices.Max(t[1:]))
	}
	return out
}

// Tables renders the published gains, then one row per reading: its gains
// with their header reuse at the first seed, its score with every term, how
// far each figure's term moves over the seeds, and the figures on which it
// beats the paper row by more than the paper row's own spread.
func (r AblationResult) Tables() []Table {
	t := Table{
		ID:    "ablations",
		Title: "Readings scored against the paper (Pseudo+S+B gain (header reuse); score = largest |measured - published|, in points)",
		Header: append(append([]string{"reading"}, r.Gains...), "score ("+strings.Join(r.Gains, " / ")+")",
			fmt.Sprintf("spread over %d seeds (Fig. 8 / Fig. 12)", ablationSeeds), "beats paper on"),
	}
	published := []string{"published"}
	for _, g := range paperGains {
		published = append(published, pct(g))
	}
	t.Rows = append(t.Rows, append(published, "-", "-", "-"))
	spread := func(x []float64) float64 { return slices.Max(x) - slices.Min(x) }
	paper := r.figureTerms(0)
	for ri, name := range r.Readings {
		row := []string{name}
		for g := range r.Gains {
			row = append(row, fmt.Sprintf("%s (%s)", pct(r.Gain[ri][0][g]), pct(r.HeadReuse[ri][0][g])))
		}
		var terms, spreads, beats []string
		for _, d := range r.terms(ri, 0) {
			terms = append(terms, num(100*d))
		}
		ft := r.figureTerms(ri)
		for f, fig := range []string{"Fig. 8", "Fig. 12"} {
			spreads = append(spreads, num(100*spread(ft[f])))
			if ft[f][0] < paper[f][0]-spread(paper[f]) {
				beats = append(beats, fig)
			}
		}
		verdict := strings.Join(beats, ", ")
		if ri == 0 {
			verdict = "-"
		} else if verdict == "" {
			verdict = "neither"
		}
		t.Rows = append(t.Rows, append(row, fmt.Sprintf("%s (%s)", num(100*r.Score(ri)), strings.Join(terms, " / ")),
			strings.Join(spreads, " / "), verdict))
	}
	return []Table{t}
}
