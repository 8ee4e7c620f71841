package experiments_test

import (
	"fmt"
	"testing"

	"pseudocircuit/internal/traffic"
	"pseudocircuit/noc"
)

// TestPipelineLawOnEveryTopology is a closed-form oracle for the Fig. 6 law
// on the four Fig. 13 topologies. One lone single-flit periodic flow meets
// no contention, so its network latency is fully determined:
//
//	AvgNetLatency = Σ over the routers on its route (P + the latency of the
//	                link it leaves by, the ejection link included) + inject
//
// with P the router pipeline depth — 3 for Baseline and, once the path is
// warm, 2 for Pseudo and 1 for Pseudo+B (paper Fig. 6) — and inject the one
// cycle from the source NI into its router, the same on every topology. The
// route and the link latencies come from the topology's own Route/NextHop,
// so the express channels of MECS and FBFLY (up to 6 cycles long) are priced
// by their length and still cost one pipeline each. The equality is exact;
// a mismatch is a modelling bug, not noise.
//
// A lone 5-flit flow on the same pairs adds the serialization term. Latency
// is tail ejection − header injection, so the tail's lag behind the header
// is added to the header law:
//
//	serialization = (size − 1) + max(0, max over the route's router-to-router
//	                links of (L + P + 1 + sa) − BufDepth)
//
// The first term is one flit a cycle. The second is the credit stall: the
// slot a flit takes downstream comes back after the link (L + 1 cycles from
// ST to buffer write), the rest of the next router's pipeline (P − 1), one
// cycle of credit return, and — at a Baseline router only — one more (sa)
// because a credit seen in cycle c feeds an SA request whose ST is in c + 1,
// where a pseudo-circuit flit traverses in c itself. With 4-flit buffers the
// fifth flit waits for the first one's slot whenever that round trip exceeds
// 4; stalls at successive hops overlap (the tail is already late where the
// next credit is), so the packet pays the largest, once. The NI's own loop is
// 0 + 3 + 1 = 4 and never stalls; the ejection port is uncredited.
func TestPipelineLawOnEveryTopology(t *testing.T) {
	const inject, bufDepth, size = 1, 4, 5
	depth := []struct {
		scheme noc.Scheme
		p, sa  int
	}{{noc.Baseline, 3, 1}, {noc.Pseudo, 2, 0}, {noc.PseudoB, 1, 0}}
	for _, tc := range []struct {
		topo  noc.Topology
		pairs [][2]int
	}{
		// Corner to corner both ways, one hop, along a row, along a column,
		// and interior pairs turning from X to Y.
		{noc.Mesh(8, 8), [][2]int{{0, 63}, {63, 0}, {7, 56}, {0, 1}, {0, 7}, {0, 56}, {12, 15}, {20, 43}, {3, 60}}},
		// Concentrated grids (4 terminals a router): the same shapes, plus a
		// pair under one router, plus (for the express topologies) the full
		// row and column channels from both ends.
		{noc.CMesh(4, 4, 4), [][2]int{{0, 63}, {63, 0}, {15, 48}, {0, 3}, {0, 12}, {0, 48}, {20, 43}, {7, 56}, {5, 38}}},
		{noc.MECS(4, 4, 4), [][2]int{{0, 63}, {63, 0}, {15, 48}, {0, 3}, {0, 12}, {12, 0}, {0, 48}, {48, 0}, {20, 43}, {5, 38}}},
		{noc.FBFly(4, 4, 4), [][2]int{{0, 63}, {63, 0}, {15, 48}, {0, 3}, {0, 12}, {12, 0}, {0, 48}, {48, 0}, {20, 43}, {5, 38}}},
	} {
		topo := tc.topo
		// The longest link any route can take, so the pairs provably cover it.
		longest := 0
		for r := 0; r < topo.Routers(); r++ {
			for dst := 0; dst < topo.Nodes(); dst++ {
				longest = max(longest, topo.NextHop(r, topo.Route(r, dst, 0), dst).Latency)
			}
		}
		covered := 0
		for _, pair := range tc.pairs {
			src, dst := pair[0], pair[1]
			routers, wire, credited := 0, 0, 0 // credited: the longest link into another router
			for r, _, _ := topo.NodeRouter(src); r >= 0; {
				hop := topo.NextHop(r, topo.Route(r, dst, 0), dst)
				routers++
				wire += hop.Latency
				covered = max(covered, hop.Latency)
				if hop.Router >= 0 {
					credited = max(credited, hop.Latency)
				}
				r = hop.Router
			}
			for _, d := range depth {
				t.Run(fmt.Sprintf("%s/%s/%d-%d", topo.Name(), d.scheme, src, dst), func(t *testing.T) {
					e := noc.Experiment{
						Topology: topo, Scheme: d.scheme, Routing: noc.XY, Policy: noc.StaticVA,
						BufDepth: bufDepth,
						Warmup:   400, Measure: 2000, // as Fig6: ample for a lone flow
					}
					res := e.RunOn(e.Build(), traffic.NewFlows(traffic.Flow{Src: src, Dst: dst, Size: 1, Period: 25}))
					want := float64(routers*d.p + wire + inject)
					if res.PacketsDelivered == 0 || res.AvgNetLatency != want {
						t.Errorf("%d packets at %v cycles, want %v = %d routers × %d + %d link cycles + %d",
							res.PacketsDelivered, res.AvgNetLatency, want, routers, d.p, wire, inject)
					}
					stall := 0
					if credited > 0 {
						stall = max(0, credited+d.p+1+d.sa-bufDepth)
					}
					res = e.RunOn(e.Build(), traffic.NewFlows(traffic.Flow{Src: src, Dst: dst, Size: size, Period: 25}))
					if want += float64(size - 1 + stall); res.PacketsDelivered == 0 || res.AvgNetLatency != want {
						t.Errorf("%d-flit packets: %d at %v cycles, want %v = header law + %d + a %d-cycle credit stall (longest credited link %d)",
							size, res.PacketsDelivered, res.AvgNetLatency, want, size-1, stall, credited)
					}
				})
			}
		}
		if len(tc.pairs) < 8 || covered != longest {
			t.Errorf("%s: %d pairs whose longest link is %d cycles; want ≥ 8 covering the topology's longest, %d",
				topo.Name(), len(tc.pairs), covered, longest)
		}
	}
}
