package sim_test

import (
	"math"
	"testing"
	"testing/quick"

	"pseudocircuit/internal/sim"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := sim.NewRNG(42), sim.NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGZeroSeedRemapped(t *testing.T) {
	r := sim.NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestIntnRange(t *testing.T) {
	err := quick.Check(func(seed uint64, n uint16) bool {
		if n == 0 {
			return true
		}
		r := sim.NewRNG(seed)
		v := r.Intn(int(n))
		return v >= 0 && v < int(n)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	sim.NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := sim.NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v outside [0,1)", v)
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := sim.NewRNG(3)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %.4f", got)
	}
}

func TestGeometricMean(t *testing.T) {
	r := sim.NewRNG(9)
	// Mean failures before success with p = 1/(1+L) is L.
	const L = 3.0
	p := 1 / (1 + L)
	sum := 0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += r.Geometric(p)
	}
	got := float64(sum) / n
	if math.Abs(got-L) > 0.15 {
		t.Fatalf("Geometric mean = %.3f, want ~%.1f", got, L)
	}
}

func TestGeometricEdges(t *testing.T) {
	r := sim.NewRNG(1)
	if got := r.Geometric(1); got != 0 {
		t.Fatalf("Geometric(1) = %d, want 0", got)
	}
	if got := r.Geometric(2); got != 0 {
		t.Fatalf("Geometric(2) = %d, want 0", got)
	}
	// A probability of zero never succeeds; the draw stops at its cap.
	if got := r.Geometric(0); got != 1<<20 {
		t.Fatalf("Geometric(0) = %d, want the cap %d", got, 1<<20)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := sim.NewRNG(11)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams correlated: %d/100 equal draws", same)
	}
}

// TestBelowThresholdIsBernoulli: Below(Threshold(p)) draws what Bernoulli(p)
// draws, from the same stream, for any p. Besides the stream's own draws the
// property tries the two a rounding decides: p equal to the next draw's value
// u/2⁵³ (false either way) and p one ulp above it (true — what a threshold
// truncated instead of rounded up gets wrong whenever p·2⁵³ has a fraction).
func TestBelowThresholdIsBernoulli(t *testing.T) {
	same := func(seed uint64, p float64) bool {
		a, b := sim.NewRNG(seed), sim.NewRNG(seed)
		th := sim.Threshold(p)
		for i := 0; i < 64; i++ {
			if a.Bernoulli(p) != b.Below(th) {
				t.Logf("seed %d, p %g (threshold %d): draw %d differs", seed, p, th, i)
				return false
			}
		}
		return true
	}
	for _, c := range []struct {
		p    float64
		want uint64
	}{
		{0, 0}, {-0.25, 0}, {math.Inf(-1), 0}, {math.NaN(), 0},
		{1, 1 << 53}, {1.5, 1 << 53}, {math.Inf(1), 1 << 53},
		{math.SmallestNonzeroFloat64, 1}, {math.Nextafter(1, 0), 1<<53 - 1}, {0.5, 1 << 52},
	} {
		if got := sim.Threshold(c.p); got != c.want {
			t.Errorf("Threshold(%g) = %d, want %d", c.p, got, c.want)
		}
		if !same(1, c.p) {
			t.Errorf("Below(Threshold(%g)) and Bernoulli disagree", c.p)
		}
	}
	err := quick.Check(func(seed uint64, p float64, q uint32, up bool) bool {
		u := sim.NewRNG(seed).Float64() // the value of the stream's next draw
		if up {
			u = math.Nextafter(u, 1)
		}
		return same(seed, p) && same(seed, float64(q)/(1<<32)) && same(seed, u)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}
