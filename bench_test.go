// Benchmarks regenerating every table and figure of the paper's evaluation,
// one testing.B target per artifact, plus simulator micro-benchmarks and the
// DESIGN.md ablation benches. Each iteration runs a reduced-size version of
// the experiment (cmd/sweep runs the full-size versions); the headline
// quantity of each figure is attached via b.ReportMetric so
// `go test -bench=. -benchmem` prints the reproduced series alongside the
// timings.
package pseudocircuit_test

import (
	"fmt"
	"testing"
	"time"

	"pseudocircuit/internal/experiments"
	"pseudocircuit/internal/router"
	"pseudocircuit/noc"
)

// benchOptions keeps per-iteration cost manageable while preserving every
// experiment's shape.
func benchOptions() experiments.Options {
	return experiments.Options{
		Warmup:     300,
		Measure:    2500,
		Benchmarks: []string{"fma3d", "specjbb", "fft"},
	}
}

func BenchmarkTable01CMPConfig(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.TableI()
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable02EnergyModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.TableII()
		if len(t.Rows) != 3 {
			b.Fatal("unexpected table shape")
		}
	}
}

func BenchmarkFig01Locality(b *testing.B) {
	var r experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig1(benchOptions())
	}
	b.ReportMetric(100*r.AvgE2E, "e2e-locality-%")
	b.ReportMetric(100*r.AvgXbar, "xbar-locality-%")
}

func BenchmarkFig06Pipeline(b *testing.B) {
	var r experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig6(experiments.Options{Warmup: 200, Measure: 1000})
	}
	b.ReportMetric(r.PerHop[0], "baseline-cycles/hop")
	b.ReportMetric(r.PerHop[1], "pseudo-cycles/hop")
	b.ReportMetric(r.PerHop[2], "bypass-cycles/hop")
}

func BenchmarkFig08Overall(b *testing.B) {
	var r experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig8(benchOptions())
	}
	b.ReportMetric(100*r.AvgReduction[3], "psb-latency-reduction-%")
	b.ReportMetric(100*r.AvgReuse[3], "psb-reusability-%")
}

func BenchmarkFig09RoutingVA(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"fma3d"}
	var r experiments.GridResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig9And10(o)
	}
	red, _ := r.AvgOverBenchmarks()
	b.ReportMetric(100*red[3][0], "psb-staticXY-reduction-%")
	b.ReportMetric(100*red[3][3], "psb-dynamicXY-reduction-%")
}

func BenchmarkFig10Reusability(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"fma3d"}
	var r experiments.GridResult
	for i := 0; i < b.N; i++ {
		r = experiments.Fig9And10(o)
	}
	_, reuse := r.AvgOverBenchmarks()
	b.ReportMetric(100*reuse[3][0], "psb-staticXY-reuse-%")
	b.ReportMetric(100*reuse[3][3], "psb-dynamicXY-reuse-%")
}

func BenchmarkFig11Energy(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"fma3d", "specjbb"}
	var r experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig11(o)
	}
	b.ReportMetric(100*(1-r.Avg[0][4]), "psb-energy-saving-XY-%")
}

func BenchmarkFig12Synthetic(b *testing.B) {
	o := experiments.Options{Warmup: 300, Measure: 2000}
	var r experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig12(o)
	}
	b.ReportMetric(100*r.LowLoadImprovement[0][4], "UR-lowload-gain-%")
	b.ReportMetric(100*r.LowLoadImprovement[1][4], "BC-lowload-gain-%")
	b.ReportMetric(100*r.LowLoadImprovement[2][4], "BP-lowload-gain-%")
}

func BenchmarkFig13Topologies(b *testing.B) {
	o := experiments.Options{Warmup: 300, Measure: 2500}
	var r experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig13(o)
	}
	b.ReportMetric(r.Normalized[0][4], "mesh-psb-normalized")
	b.ReportMetric(r.Normalized[3][4], "fbfly-psb-normalized")
}

func BenchmarkFig14EVC(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"fma3d"}
	var r experiments.Fig14Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig14(o)
	}
	b.ReportMetric(r.Avg[0][1], "mesh-evc-normalized")
	b.ReportMetric(r.Avg[1][1], "cmesh-evc-normalized")
	b.ReportMetric(r.Avg[1][2], "cmesh-psb-normalized")
}

// Ablation benches (DESIGN.md §7): each design choice as published vs
// flipped, on the CMP platform.
func BenchmarkAblations(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"fma3d"}
	var r experiments.AblationResult
	for i := 0; i < b.N; i++ {
		r = experiments.Ablations(o)
	}
	for i, name := range r.Names {
		_ = name
		b.ReportMetric(r.Flipped[i]-r.Paper[i], "ablation"+string(rune('A'+i))+"-lat-delta")
	}
}

func BenchmarkExtSystemImpact(b *testing.B) {
	o := benchOptions()
	o.Benchmarks = []string{"fma3d"}
	var r experiments.SystemImpactResult
	for i := 0; i < b.N; i++ {
		r = experiments.SystemImpact(o)
	}
	b.ReportMetric(100*(1-r.PSBMissLat[0]/r.BaseMissLat[0]), "miss-latency-gain-%")
}

func BenchmarkExtReuseVsLoad(b *testing.B) {
	var r experiments.ReuseVsLoadResult
	for i := 0; i < b.N; i++ {
		r = experiments.ReuseVsLoad(experiments.Options{Warmup: 300, Measure: 2000})
	}
	b.ReportMetric(100*r.Gain[0], "lowload-gain-%")
	b.ReportMetric(100*r.Gain[len(r.Gain)-1], "highload-gain-%")
}

// Simulator micro-benchmarks: raw stepping rate of the cycle kernel.
func BenchmarkSimulatorMeshUniform(b *testing.B) {
	exp := noc.Experiment{
		Topology: noc.Mesh(8, 8),
		Scheme:   noc.PseudoSB,
		Routing:  noc.XY,
		Policy:   noc.StaticVA,
		Warmup:   100,
		Measure:  1,
	}
	n := exp.Build()
	w := exp.SyntheticWorkload(noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.10})
	n.Run(w, 2000) // reach the zero-alloc steady state before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step(w)
	}
	b.ReportMetric(float64(n.Stats.FlitsDelivered)/float64(b.N), "flits/cycle")
}

// BenchmarkSimulatorNaiveKernel is BenchmarkSimulatorMeshUniform with the
// active-set scheduler disabled; the ratio of the two is the kernel's
// speedup at this load.
func BenchmarkSimulatorNaiveKernel(b *testing.B) {
	exp := noc.Experiment{
		Topology:    noc.Mesh(8, 8),
		Scheme:      noc.PseudoSB,
		Routing:     noc.XY,
		Policy:      noc.StaticVA,
		NaiveKernel: true,
		Warmup:      100,
		Measure:     1,
	}
	n := exp.Build()
	w := exp.SyntheticWorkload(noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.10})
	n.Run(w, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step(w)
	}
}

// BenchmarkFig12Sequential is ns per cycle of the kernel at a Fig. 12-style
// operating point (8×8 mesh, Pseudo+S+B, loaded uniform-random traffic), driven
// through Run.
func BenchmarkFig12Sequential(b *testing.B) { benchKernel(b, 8, 0.18) }

// BenchmarkKernelSchedules is the mesh-size matrix behind EXPERIMENTS.md
// "Cycle kernel schedules": what a cycle of the one schedule costs as the
// network grows. The large meshes take seconds to warm; run it with a fixed,
// small iteration count (-benchtime 500x).
func BenchmarkKernelSchedules(b *testing.B) {
	for _, side := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("mesh%dx%d", side, side), func(b *testing.B) {
			benchKernel(b, side, 0.10)
		})
	}
	// The other end of the load axis, at the repository benchmark's largest
	// state: ~45 of 576 routers tick per cycle, so the cycle is what it costs
	// to find them.
	b.Run("mesh24x24-sparse", func(b *testing.B) { benchKernel(b, 24, 0.002) })
}

func benchKernel(b *testing.B, side int, rate float64) {
	benchCycles(b, noc.Experiment{
		Topology: noc.Mesh(side, side),
		Scheme:   noc.PseudoSB,
		Routing:  noc.XY,
		Policy:   noc.StaticVA,
	}, noc.Synthetic{Pattern: noc.UniformRandom, Rate: rate})
}

// BenchmarkEVCSequential is BenchmarkFig12Sequential's pair on the EVC
// comparison router at the repository benchmark's mesh8-bc-evc operating
// point (8×8 mesh, bit complement 0.10, dynamic VA): both tick the one
// router pipeline, this one with the express policy installed.
func BenchmarkEVCSequential(b *testing.B) {
	benchCycles(b, noc.Experiment{
		Topology: noc.Mesh(8, 8),
		Scheme:   noc.Baseline,
		Routing:  noc.XY,
		Policy:   noc.DynamicVA,
		UseEVC:   true,
	}, noc.Synthetic{Pattern: noc.BitComplement, Rate: 0.10})
}

// benchCycles reports ns per simulated cycle of exp under syn, the network
// built and warmed once.
func benchCycles(b *testing.B, exp noc.Experiment, syn noc.Synthetic) {
	n := exp.Build()
	w := exp.SyntheticWorkload(syn)
	n.Run(w, 2000) // reach the zero-alloc steady state before measuring
	b.ReportAllocs()
	b.ResetTimer()
	n.Run(w, b.N)
	b.ReportMetric(float64(n.Stats.FlitsDelivered)/float64(b.N), "flits/cycle")
}

func BenchmarkSimulatorCMP(b *testing.B) {
	exp := noc.Experiment{
		Topology: noc.CMesh(4, 4, 4),
		Scheme:   noc.PseudoSB,
		Routing:  noc.XY,
		Policy:   noc.StaticVA,
	}
	n := exp.Build()
	w, err := exp.CMPWorkload("fma3d")
	if err != nil {
		b.Fatal(err)
	}
	n.Run(w, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step(w)
	}
}

func BenchmarkSchemeOverheadBaseline(b *testing.B) { benchScheme(b, noc.Baseline) }
func BenchmarkSchemeOverheadPseudoSB(b *testing.B) { benchScheme(b, noc.PseudoSB) }

func benchScheme(b *testing.B, s noc.Scheme) {
	exp := noc.Experiment{
		Topology: noc.Mesh(8, 8),
		Scheme:   s,
		Routing:  noc.XY,
		Policy:   noc.StaticVA,
	}
	n := exp.Build()
	w := exp.SyntheticWorkload(noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.10})
	n.Run(w, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step(w)
	}
}

// BenchmarkNetworkBuild times Experiment.Build — network.New's wiring pass
// plus router, NI and slab construction — at the sizes the experiments
// and the service use: the paper's two platforms, the benchmark's largest
// direct workload and the largest spec nocd accepts. Run with -benchmem:
// allocs/op is one per kind of state, the same at every size
// (TestBuildAllocsIndependentOfSize), and bytes/op is what grows.
func BenchmarkNetworkBuild(b *testing.B) {
	for _, c := range []struct {
		name string
		topo noc.Topology
	}{
		{"mesh8x8", noc.Mesh(8, 8)},
		{"cmesh4x4x4", noc.CMesh(4, 4, 4)},
		{"mesh24x24", noc.Mesh(24, 24)},
		{"mesh32x32", noc.Mesh(32, 32)},
		{"mesh64x64", noc.Mesh(64, 64)},
	} {
		b.Run(c.name, func(b *testing.B) {
			exp := noc.Experiment{
				Topology: c.topo,
				Scheme:   noc.PseudoSB,
				Routing:  noc.XY,
				Policy:   noc.StaticVA,
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				builtNet = exp.Build()
			}
		})
	}
}

// builtNet keeps BenchmarkNetworkBuild's result reachable so the compiler
// cannot elide the build.
var builtNet *noc.Network

// BenchmarkStageClock answers "where does a busy tick go?" at two of the
// repository benchmark's operating points: mesh8-ur-psb (8×8 Pseudo+S+B,
// uniform 0.10) and mesh24-ur-sparse (24×24 Baseline, uniform 0.002). Two
// copies of the network run the same cycles in alternating chunks, one with
// the router stage clock on; they tick the same bits, so the extra wall time
// of the timed copy is the clock's own, and divided by its reads it prices
// one read in place (read-ns, against back-to-back-read-ns, the cost of a
// read with nothing around it). Each phase then reports its ns per tick net
// of the reads its bucket holds, and the share of ticks that ran it.
// EXPERIMENTS.md "Where a busy tick goes" is its table:
//
//	go test -run '^$' -bench StageClock -benchtime 40000x -count 7 .
func BenchmarkStageClock(b *testing.B) {
	for _, c := range []struct {
		name string
		exp  noc.Experiment
		syn  noc.Synthetic
	}{
		{"mesh8-ur-psb", noc.Experiment{Topology: noc.Mesh(8, 8), Scheme: noc.PseudoSB, Routing: noc.XY,
			Policy: noc.StaticVA}, noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.10}},
		{"mesh24-ur-sparse", noc.Experiment{Topology: noc.Mesh(24, 24), Scheme: noc.Baseline, Routing: noc.XY,
			Policy: noc.StaticVA}, noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.002}},
	} {
		b.Run(c.name, func(b *testing.B) {
			exp := c.exp
			plain := exp.Build()
			plainW := exp.SyntheticWorkload(c.syn)
			exp.Observe.Stages = true
			timed := exp.Build()
			timedW := exp.SyntheticWorkload(c.syn)
			plain.Run(plainW, 2000)
			timed.Run(timedW, 2000)
			clock := timed.Stages()
			*clock = noc.StageClock{}
			var plainNS, timedNS time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			const chunks = 10
			for i := 0; i < chunks; i++ {
				cycles := b.N / chunks
				if i < b.N%chunks {
					cycles++
				}
				start := time.Now()
				plain.Run(plainW, cycles)
				mid := time.Now()
				timed.Run(timedW, cycles)
				plainNS, timedNS = plainNS+mid.Sub(start), timedNS+time.Since(mid)
			}
			b.StopTimer()
			if plain.Stats.FlitsDelivered != timed.Stats.FlitsDelivered {
				b.Fatal("the timed copy diverged")
			}
			ticks := float64(clock.Ticks)
			reads := ticks // each tick's opening read
			for _, bk := range clock.Stages {
				reads += float64(bk.Entered)
			}
			read := float64(timedNS-plainNS) / reads
			var net float64
			for s, bk := range clock.Stages {
				ns := (float64(bk.NS) - float64(bk.Entered)*read) / ticks
				net += ns
				b.ReportMetric(ns, noc.Stage(s).String()+"-ns/tick")
				b.ReportMetric(100*float64(bk.Entered)/ticks, noc.Stage(s).String()+"-ran-%")
			}
			b.ReportMetric(net, "net-ns/tick")
			b.ReportMetric(read, "read-ns")
			b.ReportMetric(router.ClockReadNS(), "back-to-back-read-ns")
			b.ReportMetric(float64(plainNS)/float64(b.N), "untimed-ns/cycle")
			b.ReportMetric(ticks/float64(b.N), "ticks/cycle")
		})
	}
}
