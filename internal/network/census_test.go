package network_test

import (
	"fmt"
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/stats"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
	"pseudocircuit/internal/vcalloc"
)

// TestMissCensusSumsToHeadTraversals: every header traversal is a hit (it
// rode a circuit, bypass included) or one miss class, so at every router the
// classes and HeadReused sum exactly to HeadTravs, on the naive and the
// active-set schedule. The grid is every scheme under XY + static VA and
// under O1TURN + dynamic VA (Fig. 12's and Fig. 8's configurations), and the
// full scheme on one VC of 2 flits, where ports run dry and circuits are torn
// down by credit, and on two VCs past saturation, where a header's VC
// allocation fails beside a live circuit it matches. Across the grid every
// class is met at least once.
func TestMissCensusSumsToHeadTraversals(t *testing.T) {
	type point struct {
		scheme     core.Scheme
		algo       routing.Algorithm
		pol        vcalloc.Policy
		vcs, depth int
		pattern    traffic.Pattern
		rate       float64
	}
	var points []point
	for _, s := range core.Schemes {
		points = append(points,
			point{s, routing.XY, vcalloc.Static, 4, 4, traffic.UniformRandom, 0.10},
			point{s, routing.O1TURN, vcalloc.Dynamic, 4, 4, traffic.BitComplement, 0.10})
	}
	points = append(points, point{core.PseudoSB, routing.XY, vcalloc.Static, 1, 2, traffic.UniformRandom, 0.08},
		point{core.PseudoSB, routing.XY, vcalloc.Static, 2, 4, traffic.UniformRandom, 0.30})
	var seen [stats.NumMissClasses]uint64
	for _, p := range points {
		for _, k := range kernels {
			name := fmt.Sprintf("%v/%v/%v/%dx%d/%s", p.scheme, p.algo, p.pol, p.vcs, p.depth, k.name)
			topo := topology.NewMesh(4, 4)
			n := buildKernelOpts(topo, core.DefaultOptions(p.scheme), p.vcs, p.depth, p.algo, p.pol, k)
			w := traffic.NewSynthetic(traffic.Config{Pattern: p.pattern, Nodes: topo.Nodes(), Rate: p.rate}, sim.NewRNG(7))
			n.Run(w, 300)
			n.ResetStats()
			n.Run(w, 1500)
			for _, r := range n.Registry().Routers() {
				sum := r.HeadReused
				for c, m := range r.Misses {
					sum += m
					seen[c] += m
				}
				if sum != r.HeadTravs {
					t.Errorf("%s: router %d: %d hits + misses %v = %d, want HeadTravs %d",
						name, r.ID, r.HeadReused, r.Misses, sum, r.HeadTravs)
				}
			}
			if tot := n.Registry().Totals(); tot.HeadTravs == 0 {
				t.Errorf("%s: no header traversed", name)
			}
		}
	}
	for c, m := range seen {
		if m == 0 {
			t.Errorf("class %q never met", stats.MissClassNames[c])
		}
	}
}
