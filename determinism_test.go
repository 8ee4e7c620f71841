// Golden determinism tests over the public API: the simulator must produce
// bit-identical results run-to-run, and the work-proportional kernel must be
// indistinguishable from the naive tick-every-router reference loop.
package pseudocircuit_test

import (
	"fmt"
	"reflect"
	"testing"

	"pseudocircuit/internal/cmp"
	"pseudocircuit/internal/core"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
	"pseudocircuit/noc"
)

// TestGoldenDeterminism runs every scheme twice on Mesh(4,4) with
// uniform-random traffic and asserts identical full result structs. Any
// hidden dependence on heap layout, pool state or iteration order shows up
// as a diff here.
func TestGoldenDeterminism(t *testing.T) {
	for _, s := range noc.Schemes {
		s := s
		t.Run(fmt.Sprint(s), func(t *testing.T) {
			t.Parallel()
			run := func() noc.Result {
				e := noc.Experiment{
					Topology: noc.Mesh(4, 4),
					Scheme:   s,
					Routing:  noc.XY,
					Policy:   noc.StaticVA,
					Warmup:   500,
					Measure:  3000,
				}
				return e.RunSynthetic(noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.10})
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%v: same experiment diverged:\nfirst:  %+v\nsecond: %+v", s, a, b)
			}
		})
	}
}

// kernelPoint selects a schedule of the cycle kernel through the public API:
// the naive reference loop or the default active-set kernel.
type kernelPoint struct {
	name  string
	naive bool
}

// kernelTriangle is checked in every equivalence test below: the naive
// reference first, then the active-set kernel that must match it.
var kernelTriangle = []kernelPoint{
	{"naive", true},
	{"active", false},
}

// TestNaiveKernelEquivalence checks the NaiveKernel reference loop against
// the default active-set kernel through the public API, including the EVC comparison router and the closed-loop CMP
// substrate, whose workloads have idle phases that exercise router
// deactivation.
func TestNaiveKernelEquivalence(t *testing.T) {
	base := noc.Experiment{
		Topology: noc.Mesh(4, 4),
		Scheme:   noc.PseudoSB,
		Routing:  noc.XY,
		Policy:   noc.StaticVA,
		Warmup:   500,
		Measure:  3000,
	}

	// A leg is compared as its Result and every router's own row: kernels
	// that agree in total but count an event at different routers diverge.
	type ran struct {
		res  noc.Result
		rows []noc.RouterStats
	}
	runOn := func(e noc.Experiment, k kernelPoint, w noc.Workload) ran {
		e.NaiveKernel = k.naive
		n := e.Build()
		return ran{e.RunOn(n, w), n.Registry().Routers()}
	}
	triangle := func(t *testing.T, run func(k kernelPoint) ran) {
		t.Helper()
		ref := run(kernelTriangle[0])
		for _, k := range kernelTriangle[1:] {
			got := run(k)
			if ref.res != got.res {
				t.Errorf("%s and %s kernels diverge:\n%s: %+v\n%s: %+v",
					kernelTriangle[0].name, k.name, kernelTriangle[0].name, ref.res, k.name, got.res)
			}
			if !reflect.DeepEqual(ref.rows, got.rows) {
				t.Errorf("%s and %s kernels report the same Result from different per-router counters", kernelTriangle[0].name, k.name)
			}
		}
	}

	t.Run("synthetic", func(t *testing.T) {
		t.Parallel()
		triangle(t, func(k kernelPoint) ran {
			return runOn(base, k, base.SyntheticWorkload(noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.10}))
		})
	})

	t.Run("evc", func(t *testing.T) {
		t.Parallel()
		triangle(t, func(k kernelPoint) ran {
			e := base
			e.Scheme = noc.Baseline
			e.UseEVC = true
			return runOn(e, k, e.SyntheticWorkload(noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.10}))
		})
	})

	t.Run("cmp", func(t *testing.T) {
		t.Parallel()
		triangle(t, func(k kernelPoint) ran {
			e := base
			e.Topology = noc.CMesh(4, 4, 4)
			e.Routing = noc.O1TURN
			e.Policy = noc.DynamicVA
			w, err := e.CMPWorkload("fma3d")
			if err != nil {
				t.Fatal(err)
			}
			return runOn(e, k, w)
		})
	})
}

// TestCMPDrainKernelEquivalence closes the workload matrix: the closed-loop
// CMP substrate, stopped after a fixed number of misses (about 7 600 cycles
// and 10 000 packets), is drained through both schedules, driving the network's Drain path rather than the fixed-cycle Run
// path. Both must drain in the same number of cycles with bit-identical
// statistics and per-router counters (energy is their sum).
func TestCMPDrainKernelEquivalence(t *testing.T) {
	prof, ok := cmp.ProfileByName("fft")
	if !ok {
		t.Fatal("unknown benchmark fft")
	}
	run := func(k kernelPoint) *network.Network {
		topo := topology.NewCMesh(4, 4, 4)
		cfg := network.DefaultConfig(topo)
		cfg.Opts = core.DefaultOptions(core.PseudoSB)
		cfg.Naive = k.naive
		n := network.New(cfg)
		w := cmp.New(topo, cmp.PaperTableI(), prof, sim.NewRNG(1))
		w.MaxMisses = 5000
		if !n.Drain(w, 200000) {
			t.Fatalf("%s: the workload did not drain", k.name)
		}
		if got := w.TotalMisses(); got != w.MaxMisses {
			t.Fatalf("%s: drained after %d misses, want %d", k.name, got, w.MaxMisses)
		}
		return n
	}
	ref := run(kernelTriangle[0])
	for _, k := range kernelTriangle[1:] {
		got := run(k)
		if ref.Now() != got.Now() {
			t.Errorf("%s drained at cycle %d, %s at %d", kernelTriangle[0].name, ref.Now(), k.name, got.Now())
		}
		if !reflect.DeepEqual(ref.Stats, got.Stats) {
			t.Errorf("drain stats diverge (%s vs %s):\nref: %+v\ngot: %+v", kernelTriangle[0].name, k.name, ref.Stats, got.Stats)
		}
		if !reflect.DeepEqual(ref.Registry().Routers(), got.Registry().Routers()) {
			t.Errorf("drain per-router counters diverge (%s vs %s):\nref: %+v\ngot: %+v",
				kernelTriangle[0].name, k.name, ref.Registry().Totals(), got.Registry().Totals())
		}
	}
}
