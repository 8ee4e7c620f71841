package network_test

import (
	"fmt"
	"testing"

	"pseudocircuit/internal/stats"
	"pseudocircuit/noc"
	"pseudocircuit/nocdclient"
)

// TestMissCensusSumsToHeadTraversals: at every router the miss classes and
// HeadReused sum exactly to HeadTravs (censusHolds), on the naive and the
// active-set schedule. The grid is every scheme under XY + static VA and
// under O1TURN + dynamic VA (Fig. 12's and Fig. 8's configurations), and the
// full scheme on one VC of 2 flits, where ports run dry and circuits are torn
// down by credit, and on two VCs past saturation, where a header's VC
// allocation fails beside a live circuit it matches. Across the grid every
// class is met at least once, and some header bypasses its buffer.
func TestMissCensusSumsToHeadTraversals(t *testing.T) {
	var reqs []nocdclient.Request
	point := func(scheme, routing, va string, vcs, depth int, pattern string, rate float64) {
		reqs = append(reqs, nocdclient.Request{
			Spec: noc.Spec{Topology: "mesh4x4", Scheme: scheme, Routing: routing, VA: va,
				NumVCs: vcs, BufDepth: depth, Seed: 7, Warmup: 300, Measure: 1500},
			Workload: noc.WorkloadSpec{Pattern: pattern, Rate: rate},
		})
	}
	for _, s := range []string{"baseline", "pseudo", "pseudo+s", "pseudo+b", "pseudo+s+b"} {
		point(s, "xy", "static", 4, 4, "uniform", 0.10)
		point(s, "o1turn", "dynamic", 4, 4, "bitcomp", 0.10)
	}
	point("pseudo+s+b", "xy", "static", 1, 2, "uniform", 0.08)
	point("pseudo+s+b", "xy", "static", 2, 4, "uniform", 0.30)
	var seen [stats.NumMissClasses]uint64
	var bypassed uint64 // header flits that skipped their buffer (+B)
	for _, req := range reqs {
		for _, k := range kernels {
			name := fmt.Sprintf("%s/%s/%s/%dx%d/%s", req.Scheme, req.Routing, req.VA, req.NumVCs, req.BufDepth, k.name)
			e, n, w := specNet(t, req, k)
			e.RunOn(n, w)
			censusHolds(t, name, n)
			for _, r := range n.Registry().Routers() {
				for c, m := range r.Misses {
					seen[c] += m
				}
			}
			tot := n.Registry().Totals()
			if tot.HeadTravs == 0 {
				t.Errorf("%s: no header traversed", name)
			}
			bypassed += tot.HeadBypassed
		}
	}
	for c, m := range seen {
		if m == 0 {
			t.Errorf("class %q never met", stats.MissClassNames[c])
		}
	}
	if bypassed == 0 {
		t.Error("no header bypassed its buffer")
	}
}
