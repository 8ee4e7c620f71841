// Simulator micro-benchmarks: what a simulated cycle and a network build
// cost, with allocations (-benchmem). The paper's tables and figures are not
// benchmarks: internal/experiments' TestGolden pins each one at reduced size
// and `go run ./cmd/sweep -exp <id>` prints it at full size.
package pseudocircuit_test

import (
	"fmt"
	"testing"
	"time"

	"pseudocircuit/internal/router"
	"pseudocircuit/noc"
)

// BenchmarkSimulatorNaiveKernel is BenchmarkSchemeOverheadPseudoSB with the
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
// "Simulator performance": what a cycle of the one schedule costs as the
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

// BenchmarkSchemeOverheadBaseline and BenchmarkSchemeOverheadPseudoSB step
// the same 8×8 uniform-random network at 0.10 flits/node/cycle; the ratio of
// the two is what the pseudo-circuit scheme costs a cycle.
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
// EXPERIMENTS.md "Simulator performance" has its verdict:
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
