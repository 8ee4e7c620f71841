package experiments_test

import (
	"os"
	"reflect"
	"testing"

	"pseudocircuit/internal/experiments"
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

func TestAblationsRun(t *testing.T) {
	o := quick()
	o.Benchmarks = []string{"fma3d"}
	r := experiments.Ablations(o)
	if len(r.Names) != 4 {
		t.Fatalf("%d ablations, want 4", len(r.Names))
	}
	for i := range r.Names {
		if r.Paper[i] <= 0 || r.Flipped[i] <= 0 {
			t.Errorf("%s: zero latency", r.Names[i])
		}
	}
	// Destination keying (the paper's choice) must beat flow keying.
	if r.Paper[3] >= r.Flipped[3] {
		t.Errorf("destination keying (%.2f) not better than flow keying (%.2f)",
			r.Paper[3], r.Flipped[3])
	}
}

// TestAblationsPaperReadingIsFig12: the paper row of ablations.fig12 is the
// run Fig. 12 makes, so each flipped row differs from the figure by the flip
// alone.
func TestAblationsPaperReadingIsFig12(t *testing.T) {
	const psb = 4 // Pseudo+S+B in Fig12Result.Schemes
	r, f := experiments.Ablations(goldenOptions), experiments.Fig12(goldenOptions)
	if !reflect.DeepEqual(r.Fig12Patterns, f.Patterns) || len(r.Fig12Readings) != 3 {
		t.Fatalf("patterns %v and readings %v, want %v and three", r.Fig12Patterns, r.Fig12Readings, f.Patterns)
	}
	for p, name := range f.Patterns {
		if r.Fig12Loads[p] != f.Loads[p][0] || r.Fig12Gain[p][0] != f.LowLoadImprovement[p][psb] ||
			r.Fig12HeadReuse[p][0] != f.LowLoadHeadReuse[p][psb] || r.Fig12HeadBypass[p][0] != f.LowLoadHeadBypass[p][psb] {
			t.Errorf("%s: paper reading (load %g, gain %v, hits %v/%v) is not Fig. 12's lowest-load Pseudo+S+B (%g, %v, %v/%v)", name,
				r.Fig12Loads[p], r.Fig12Gain[p][0], r.Fig12HeadReuse[p][0], r.Fig12HeadBypass[p][0],
				f.Loads[p][0], f.LowLoadImprovement[p][psb], f.LowLoadHeadReuse[p][psb], f.LowLoadHeadBypass[p][psb])
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
