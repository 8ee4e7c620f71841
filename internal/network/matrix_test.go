package network_test

import (
	"fmt"
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
	"pseudocircuit/internal/vcalloc"
)

// TestMatrix exercises every scheme on every topology under every synthetic
// pattern with invariant checking on, asserting delivery and a sane latency
// floor. 60 configurations; each runs briefly.
func TestMatrix(t *testing.T) {
	topos := []struct {
		name string
		mk   func() topology.Topology
	}{
		{"mesh4x4", func() topology.Topology { return topology.NewMesh(4, 4) }},
		{"cmesh2x2x4", func() topology.Topology { return topology.NewCMesh(2, 2, 4) }},
		{"mecs3x3x2", func() topology.Topology { return topology.NewMECS(3, 3, 2) }},
		{"fbfly3x3x2", func() topology.Topology { return topology.NewFBFly(3, 3, 2) }},
	}
	patterns := []traffic.Pattern{traffic.UniformRandom, traffic.BitComplement, traffic.BitPermutation}
	for _, tc := range topos {
		for _, scheme := range core.Schemes {
			for _, pat := range patterns {
				tc, scheme, pat := tc, scheme, pat
				name := fmt.Sprintf("%s/%v/%v", tc.name, scheme, pat)
				t.Run(name, func(t *testing.T) {
					topo := tc.mk()
					if pat == traffic.BitPermutation {
						w := isqrt(topo.Nodes())
						if w*w != topo.Nodes() {
							t.Skip("transpose needs a square node grid")
						}
					}
					cfg := network.DefaultConfig(topo)
					cfg.Opts = core.DefaultOptions(scheme)
					cfg.Algorithm = routing.XY
					cfg.Policy = vcalloc.Static
					n := network.New(cfg)
					n.CheckInvariants = true
					w := traffic.NewSynthetic(traffic.Config{
						Pattern: pat, Nodes: topo.Nodes(), Rate: 0.06,
					}, sim.NewRNG(31))
					n.Run(w, 2500)
					if n.Stats.PacketsDelivered < 20 {
						t.Fatalf("only %d packets delivered", n.Stats.PacketsDelivered)
					}
					// Latency cannot be below the serialization floor.
					if n.Stats.AvgNetLatency() < 5 {
						t.Fatalf("implausible latency %.2f", n.Stats.AvgNetLatency())
					}
				})
			}
		}
	}
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

// TestO1TURNMatrix repeats the matrix for O1TURN + dynamic VA on the mesh
// topologies (two VC classes).
func TestO1TURNMatrix(t *testing.T) {
	for _, scheme := range core.Schemes {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			topo := topology.NewMesh(5, 5)
			cfg := network.DefaultConfig(topo)
			cfg.Opts = core.DefaultOptions(scheme)
			cfg.Algorithm = routing.O1TURN
			cfg.Policy = vcalloc.Dynamic
			n := network.New(cfg)
			n.CheckInvariants = true
			w := traffic.NewSynthetic(traffic.Config{
				Pattern: traffic.UniformRandom, Nodes: 25, Rate: 0.10,
			}, sim.NewRNG(41))
			n.Run(w, 2500)
			if n.Stats.PacketsDelivered < 100 {
				t.Fatalf("only %d delivered", n.Stats.PacketsDelivered)
			}
		})
	}
}
