package experiments_test

import (
	"testing"

	"pseudocircuit/internal/experiments"
)

// TestHeaderHitsPredictTheSaving is ROADMAP item 2a's arithmetic. A packet's
// latency is its header's plus serialization, and a header that rides a
// pseudo-circuit skips SA (one cycle, Fig. 6) and one that also bypasses the
// buffer skips BW too (a second), so the header hits alone predict that
// Pseudo+S+B saves
//
//	predicted = hops × (header reuse + header bypass)
//
// cycles a packet against the baseline. The residual, measured − predicted,
// is what else the scheme changes: chiefly serialization — Fig. 6's law gives
// a Baseline 5-flit packet on unit links a 2-cycle credit stall that a
// pseudo-circuit packet does not pay, and 1-flit packets none — plus the
// queueing it removes or adds. The bound is that: the residual lies in
// [0, 2.5] cycles, the 2-cycle term and half a cycle of queueing, on every
// Fig. 8 benchmark and on Fig. 12's three 5-flit patterns at their lowest
// load. The runs are the golden ones (goldenOptions), so the rates are those
// the goldens pin. At full size the residuals read 0.15–1.02 cycles on the
// CMP and 1.92–2.11 on the patterns (CHANGES.md records that run; the full-size
// tables print the rates but not the hops or baseline latencies they need).
func TestHeaderHitsPredictTheSaving(t *testing.T) {
	const psb = 3 // Pseudo+S+B in Fig8Result.Schemes; Fig12Result's also list the baseline
	const lo, hi = 0.0, 2.5
	check := func(name string, base, lat, hops, reuse, bypass float64) {
		predicted, measured := hops*(reuse+bypass), base-lat
		t.Logf("%-8s %.2f hops × (%.1f%% + %.1f%%) = %.2f cycles predicted, %.2f measured: residual %+.2f",
			name, hops, 100*reuse, 100*bypass, predicted, measured, measured-predicted)
		if r := measured - predicted; r < lo || r > hi {
			t.Errorf("%s: residual %.2f cycles outside [%g, %g]", name, r, lo, hi)
		}
	}
	f8 := experiments.Fig8(goldenOptions)
	for b, name := range f8.Benchmarks {
		base := f8.BaseLatency[b]
		check(name, base, base*(1-f8.Reduction[b][psb]), f8.Hops[b][psb], f8.HeadReuse[b][psb], f8.HeadBypass[b][psb])
	}
	f12 := experiments.Fig12(goldenOptions)
	for p, name := range f12.Patterns {
		lat := f12.Latency[p]
		check(name, lat[0][0], lat[psb+1][0], f12.LowLoadHops[p][psb+1], f12.LowLoadHeadReuse[p][psb+1], f12.LowLoadHeadBypass[p][psb+1])
	}
}
