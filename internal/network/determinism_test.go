package network_test

import (
	"fmt"
	"reflect"
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
	"pseudocircuit/internal/vcalloc"
)

// kernel selects which schedule of the cycle kernel a determinism run uses:
// the naive reference (every router ticked every cycle) or the active-set
// schedule every other run uses.
type kernel struct {
	name  string
	naive bool
}

// kernels is the determinism pair: the naive reference first, then the
// active-set schedule that must leave the same bits.
var kernels = []kernel{
	{"naive", true},
	{"active", false},
}

// buildKernel builds a network with the kernel selected by k, invariant
// checking on, the paper's options for scheme, and everything else from the
// grid point.
func buildKernel(topo topology.Topology, scheme core.Scheme, algo routing.Algorithm, pol vcalloc.Policy, k kernel) *network.Network {
	return buildKernelOpts(topo, core.DefaultOptions(scheme), 4, 4, algo, pol, k)
}

// buildKernelOpts is buildKernel with the options and the buffer geometry in
// the caller's hand.
func buildKernelOpts(topo topology.Topology, opts core.Options, vcs, depth int, algo routing.Algorithm, pol vcalloc.Policy, k kernel) *network.Network {
	cfg := network.DefaultConfig(topo)
	cfg.NumVCs, cfg.BufDepth = vcs, depth
	cfg.Opts = opts
	cfg.Algorithm = algo
	cfg.Policy = pol
	cfg.Naive = k.naive
	n := network.New(cfg)
	n.CheckInvariants = true
	return n
}

// sameRun fails the test unless two runs left the same measurements: the
// NI-side struct and every router's own row, ports and OutSends included —
// so two kernels that agree in every network-wide total but count an event at
// different routers do not pass.
func sameRun(t *testing.T, refName, gotName string, ref, got *network.Network) {
	t.Helper()
	if !reflect.DeepEqual(ref.Stats, got.Stats) {
		t.Errorf("stats diverge between %s and %s:\n%s: %+v\n%s: %+v", refName, gotName, refName, ref.Stats, gotName, got.Stats)
	}
	rows, gotRows := ref.Registry().Routers(), got.Registry().Routers()
	for r := range rows {
		if !reflect.DeepEqual(rows[r], gotRows[r]) {
			t.Errorf("router %d's counters diverge between %s and %s:\n%s: %+v\n%s: %+v",
				r, refName, gotName, refName, rows[r], gotName, gotRows[r])
			return // one row is enough to read; the rest usually follow from it
		}
	}
}

// TestActiveSetMatchesNaive is the determinism harness for the
// work-proportional kernel: for each scheme × topology × workload grid point,
// run the naive reference loop (tick every router every cycle) and the
// active-set kernel with the same seed, and require bit-identical statistics,
// latency histograms and per-router counters (and with them energy).
func TestActiveSetMatchesNaive(t *testing.T) {
	type grid struct {
		name    string
		topo    func() topology.Topology
		scheme  core.Scheme
		algo    routing.Algorithm
		pol     vcalloc.Policy
		pattern traffic.Pattern
		rate    float64
	}
	var cases []grid
	// All five schemes on the mesh with uniform-random traffic.
	for _, s := range core.Schemes {
		cases = append(cases, grid{
			name:    fmt.Sprintf("mesh/%v/uniform", s),
			topo:    func() topology.Topology { return topology.NewMesh(4, 4) },
			scheme:  s,
			algo:    routing.XY,
			pol:     vcalloc.Static,
			pattern: traffic.UniformRandom,
			rate:    0.10,
		})
	}
	// The full scheme on every topology, with patterns and configurations
	// that exercise O1TURN classes, dynamic VA and bursty hotspot arrivals.
	cases = append(cases,
		grid{
			name:    "mesh/psb/transpose-o1turn",
			topo:    func() topology.Topology { return topology.NewMesh(4, 4) },
			scheme:  core.PseudoSB,
			algo:    routing.O1TURN,
			pol:     vcalloc.Dynamic,
			pattern: traffic.BitPermutation,
			rate:    0.12,
		},
		grid{
			name:    "cmesh/psb/uniform",
			topo:    func() topology.Topology { return topology.NewCMesh(3, 3, 4) },
			scheme:  core.PseudoSB,
			algo:    routing.XY,
			pol:     vcalloc.Static,
			pattern: traffic.UniformRandom,
			rate:    0.08,
		},
		grid{
			name:    "mecs/psb/hotspot",
			topo:    func() topology.Topology { return topology.NewMECS(3, 3, 2) },
			scheme:  core.PseudoSB,
			algo:    routing.XY,
			pol:     vcalloc.Static,
			pattern: traffic.Hotspot,
			rate:    0.06,
		},
		grid{
			name:    "fbfly/pseudo/bitcomp",
			topo:    func() topology.Topology { return topology.NewFBFly(3, 3, 2) },
			scheme:  core.Pseudo,
			algo:    routing.XY,
			pol:     vcalloc.Dynamic,
			pattern: traffic.BitComplement,
			rate:    0.08,
		},
		// The largest state the benchmark builds (576 routers), sparsely
		// loaded: most routers sit outside the active set, the tick index
		// spans nine words, and the wiring from the link walk is exercised at
		// scale.
		grid{
			name:    "mesh24/psb/sparse",
			topo:    func() topology.Topology { return topology.NewMesh(24, 24) },
			scheme:  core.PseudoSB,
			algo:    routing.XY,
			pol:     vcalloc.Static,
			pattern: traffic.UniformRandom,
			rate:    0.002,
		},
	)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			run := func(k kernel) *network.Network {
				topo := tc.topo()
				n := buildKernel(topo, tc.scheme, tc.algo, tc.pol, k)
				w := traffic.NewSynthetic(traffic.Config{
					Pattern: tc.pattern, Nodes: topo.Nodes(), Rate: tc.rate,
					HotspotNode: 0, HotspotFrac: 0.3,
				}, sim.NewRNG(42))
				// Split the run so a mid-run stats reset (the warmup
				// protocol) is covered too.
				n.Run(w, 500)
				n.ResetStats()
				n.Run(w, 2500)
				return n
			}
			ref := run(kernels[0])
			for _, k := range kernels[1:] {
				got := run(k)
				sameRun(t, kernels[0].name, k.name, ref, got)
			}
		})
	}
}

// TestActiveSetMatchesNaiveAblations runs the pair where a pseudo-circuit
// router's fixed point is hardest to get right — what its Tick returns and
// which credit wakes it — under the paper's options (the "defaults" leg; the
// router has no other reading) for every pseudo-circuit scheme: on the
// paper's buffers (4 VCs of 4 flits) from a network that is nearly always at
// its fixed point to one past saturation, and on one VC of 2 flits, where a
// port is dry whenever two flits are in flight on its link. The narrow points are the ones with teeth: at 16
// credits a port, a bypass that spends the last one and leaves the router
// empty is too rare to meet, and a Tick that forgets HeldMask & dry, or a
// credit that never wakes, passes every wide point (both were tried).
func TestActiveSetMatchesNaiveAblations(t *testing.T) {
	loads := []struct {
		vcs, depth int
		rate       float64
	}{{4, 4, 0.01}, {4, 4, 0.15}, {4, 4, 0.45}, {1, 2, 0.15}}
	for _, s := range core.Schemes[1:] {
		for _, ld := range loads {
			t.Run(fmt.Sprintf("defaults/%v/%dx%d@%.2f", s, ld.vcs, ld.depth, ld.rate), func(t *testing.T) {
				t.Parallel()
				run := func(k kernel) *network.Network {
					topo := topology.NewMesh(6, 6)
					n := buildKernelOpts(topo, core.DefaultOptions(s), ld.vcs, ld.depth, routing.XY, vcalloc.Static, k)
					w := traffic.NewSynthetic(traffic.Config{
						Pattern: traffic.UniformRandom, Nodes: topo.Nodes(), Rate: ld.rate,
					}, sim.NewRNG(99))
					n.Run(w, 200)
					n.ResetStats()
					n.Run(w, 800)
					return n
				}
				ref := run(kernels[0])
				for _, k := range kernels[1:] {
					sameRun(t, kernels[0].name, k.name, ref, run(k))
				}
			})
		}
	}
}

// TestActiveSetMatchesNaiveFlows covers deterministic flows (multi-flit
// packets on fixed paths with idle gaps — the workload most likely to
// expose a router deactivating too early).
func TestActiveSetMatchesNaiveFlows(t *testing.T) {
	run := func(k kernel) *network.Network {
		n := buildKernel(topology.NewMesh(4, 4), core.PseudoSB, routing.XY, vcalloc.Static, k)
		w := traffic.NewFlows(
			traffic.Flow{Src: 0, Dst: 15, Size: 5, Period: 37, Start: 3},
			traffic.Flow{Src: 5, Dst: 6, Size: 1, Period: 113, Start: 50},
			traffic.Flow{Src: 12, Dst: 3, Size: 5, Period: 61, Start: 10},
		)
		n.Run(w, 2000)
		return n
	}
	ref := run(kernels[0])
	for _, k := range kernels[1:] {
		got := run(k)
		sameRun(t, kernels[0].name, k.name, ref, got)
	}
}
