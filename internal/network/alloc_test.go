package network_test

import (
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/evc"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/router"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
	"pseudocircuit/internal/vcalloc"
)

// TestSteadyStateZeroAlloc asserts the tick path is allocation-free once
// warm: after the pool free lists, NI queues, reassembly maps, delivery ring
// and histogram buckets have grown to their steady-state footprint, stepping
// the simulator allocates nothing — every flit and packet comes from the
// pool and returns to it.
func TestSteadyStateZeroAlloc(t *testing.T) {
	// The evc leg runs the EVC comparison router at the repository
	// benchmark's mesh8-bc-evc point: its lanes live in the same preallocated
	// LaneStore, so the same bound applies. (The legs keep the names the test
	// floor knows them by.)
	for _, c := range []struct {
		name string
		evc  bool
	}{{"workers=0", false}, {"evc/workers=0", true}} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			topo := topology.NewMesh(8, 8)
			cfg, pattern := allocConfig(topo, c.evc)
			n := network.New(cfg)
			w := traffic.NewSynthetic(traffic.Config{
				Pattern: pattern, Nodes: topo.Nodes(), Rate: 0.10,
			}, sim.NewRNG(7))

			// Warm up well past the stats reset so every growable structure
			// has reached its working-set size.
			n.Run(w, 2000)
			n.ResetStats()
			n.Run(w, 2000)

			// Growable structures (histogram buckets, map buckets, slice
			// capacities) approach their working set asymptotically: rare
			// latency excursions still add a bucket early on. Require the
			// alloc rate to decay to exactly zero within a few trials —
			// steady state must be allocation-free, not merely cheap.
			const stepsPerRun = 100
			var avg float64
			for trial := 0; trial < 8; trial++ {
				avg = testing.AllocsPerRun(20, func() {
					for i := 0; i < stepsPerRun; i++ {
						n.Step(w)
					}
				})
				if avg == 0 {
					return
				}
			}
			t.Errorf("steady-state Step still allocates after warmup: %.2f allocs per %d steps (want 0)", avg, stepsPerRun)
		})
	}
}

// allocConfig is the zero-alloc tests' operating point on topo: Pseudo+S+B
// with static VA under uniform traffic, or, with useEVC, the comparison router
// with dynamic VA under bit complement (mesh8-bc-evc).
func allocConfig(topo *topology.Mesh, useEVC bool) (network.Config, traffic.Pattern) {
	cfg := network.DefaultConfig(topo)
	cfg.Algorithm = routing.XY
	if useEVC {
		cfg.Policy = vcalloc.Dynamic
		installEVC(&cfg, topo)
		return cfg, traffic.BitComplement
	}
	cfg.Opts = core.DefaultOptions(core.PseudoSB)
	cfg.Policy = vcalloc.Static
	return cfg, traffic.UniformRandom
}

// installEVC swaps the EVC comparison router into cfg (Opts must be Baseline):
// half the VCs express, injection restricted to the normal half.
func installEVC(cfg *network.Config, m *topology.Mesh) {
	nEVC := cfg.NumVCs / 2
	cfg.NIVCLimit = cfg.NumVCs - nEVC
	cfg.Factory = func(id, in, out int, rcfg *router.Config) network.Node {
		return evc.New(id, in, out, rcfg, m, nEVC)
	}
}
