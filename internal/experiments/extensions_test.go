package experiments_test

import (
	"fmt"
	"math"
	"os"
	"testing"

	"pseudocircuit/internal/experiments"
	"pseudocircuit/internal/vcalloc"
	"pseudocircuit/noc"
)

func TestSystemImpactShape(t *testing.T) {
	o := quick()
	o.Benchmarks = []string{"fma3d", "swaptions"}
	r := experiments.SystemImpact(o)
	for i, b := range r.Benchmarks {
		if r.BaseMissLat[i] <= 0 || r.PSBMissLat[i] <= 0 {
			t.Fatalf("%s: zero miss latency", b)
		}
		// The L2-bank latency alone is 6 cycles plus two network
		// traversals; anything below ~15 cycles is broken accounting.
		if r.BaseMissLat[i] < 15 {
			t.Errorf("%s: baseline miss latency %.1f implausibly low", b, r.BaseMissLat[i])
		}
		if r.PSBMissLat[i] >= r.BaseMissLat[i] {
			t.Errorf("%s: Pseudo+S+B miss latency %.2f not below baseline %.2f",
				b, r.PSBMissLat[i], r.BaseMissLat[i])
		}
	}
	for _, tb := range r.Tables() {
		tb.Fprint(os.Stderr)
	}
}

func TestReuseVsLoadShape(t *testing.T) {
	o := experiments.Options{Warmup: 300, Measure: 2500}
	r := experiments.ReuseVsLoad(o)
	if len(r.Loads) < 4 {
		t.Fatal("too few load points")
	}
	// Low-load gain must exceed the gain near saturation (§8: contention
	// erodes the benefit), and low-load reusability must be substantial.
	first, last := r.Gain[0], r.Gain[len(r.Gain)-1]
	if first < 0.05 {
		t.Errorf("low-load gain %.3f too small", first)
	}
	if last >= first {
		t.Errorf("gain did not erode with load: %.3f -> %.3f", first, last)
	}
	if r.Reuse[0] < 0.3 {
		t.Errorf("low-load reusability %.3f too small", r.Reuse[0])
	}
	for _, tb := range r.Tables() {
		tb.Fprint(os.Stderr)
	}
}

// TestAblationsRun: the grid has one row per reading and one cell per gain
// at every seed, each a gain, and each row's score is its largest distance
// from the paper's gains.
// Beside it, the check the grid no longer runs: on the CMP under XY + static
// VA, destination keying (the paper's §5 choice) beats flow keying.
func TestAblationsRun(t *testing.T) {
	o := quick()
	o.Benchmarks = []string{"fma3d"}
	r := experiments.Ablations(o)
	if len(r.Readings) != 2 || len(r.Gains) != 4 || len(r.Gain) != 2 || len(r.Gain[0]) != 3 {
		t.Fatalf("readings %v, gains %v, %d×%d cells; want 2 readings, 4 gains, 2×3", r.Readings, r.Gains, len(r.Gain), len(r.Gain[0]))
	}
	for ri, name := range r.Readings {
		for s, gains := range r.Gain[ri] {
			for g, v := range gains {
				if v <= 0 || v >= 1 || r.HeadReuse[ri][s][g] <= 0 {
					t.Errorf("%s, seed +%d, %s: gain %.3f, header reuse %.3f", name, s, r.Gains[g], v, r.HeadReuse[ri][s][g])
				}
			}
		}
		score := 0.0
		for g, paper := range []float64{0.16, 0.11, 0.06, 0.11} { // Fig. 8's 16 %, Fig. 12's UR, BC, BP
			score = max(score, math.Abs(r.Gain[ri][0][g]-paper))
		}
		if r.Score(ri) != score {
			t.Errorf("%s: score %.4f, want the largest |gain - paper| %.4f", name, r.Score(ri), score)
		}
	}
	latency := func(key vcalloc.StaticKey) float64 {
		res, err := noc.Experiment{Topology: noc.CMesh(4, 4, 4), Scheme: noc.PseudoSB, Routing: noc.XY, Policy: noc.StaticVA,
			StaticKey: key, Warmup: o.Warmup, Measure: o.Measure}.RunCMP("fma3d")
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgLatency
	}
	if dst, flow := latency(vcalloc.KeyDestination), latency(vcalloc.KeyFlow); dst >= flow {
		t.Errorf("destination keying (%.2f) not better than flow keying (%.2f)", dst, flow)
	}
}

// TestAblationsPaperReadingIsFig12: at every seed the paper row is the runs
// Fig. 8 and Fig. 12 make, so another row differs from the figures by its
// reading alone: its Fig. 8 cell is Fig8's Pseudo+S+B average and its other
// cells Fig12's lowest-load Pseudo+S+B, header reuse included.
func TestAblationsPaperReadingIsFig12(t *testing.T) {
	const psb8, psb12 = 3, 4 // Pseudo+S+B in Fig8Result.Schemes, Fig12Result.Schemes
	r := experiments.Ablations(goldenOptions)
	for s := range r.Gain[0] {
		o := goldenOptions
		o.Seed = 1 + uint64(s)
		f8, f12 := experiments.Fig8(o), experiments.Fig12(o)
		gain, head := r.Gain[0][s], r.HeadReuse[0][s]
		if gain[0] != f8.AvgReduction[psb8] || head[0] != f8.AvgHeadReuse[psb8] {
			t.Errorf("seed %d: paper reading's Fig. 8 cell %v (%v) is not Fig8's Pseudo+S+B average %v (%v)",
				o.Seed, gain[0], head[0], f8.AvgReduction[psb8], f8.AvgHeadReuse[psb8])
		}
		for p, name := range f12.Patterns {
			if label := fmt.Sprintf("%s %.2f", name, f12.Loads[p][0]); r.Gains[1+p] != label {
				t.Errorf("gain %d is %q, want %q", 1+p, r.Gains[1+p], label)
			}
			if gain[1+p] != f12.LowLoadImprovement[p][psb12] || head[1+p] != f12.LowLoadHeadReuse[p][psb12] {
				t.Errorf("seed %d, %s: paper reading (gain %v, header reuse %v) is not Fig12's lowest-load Pseudo+S+B (%v, %v)",
					o.Seed, name, gain[1+p], head[1+p], f12.LowLoadImprovement[p][psb12], f12.LowLoadHeadReuse[p][psb12])
			}
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := experiments.TableI()
	if tb.ID != "table1" || len(tb.Rows) < 10 {
		t.Fatalf("TableI = %+v", tb)
	}
	t2 := experiments.TableII()
	if len(t2.Rows) != 3 {
		t.Fatalf("TableII rows = %d", len(t2.Rows))
	}
}
