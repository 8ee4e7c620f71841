package network_test

import (
	"math"
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/fault"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
)

// FuzzFaultedKernel fuzzes the fault plane under the determinism pair: a
// seeded churn process on Mesh(4,4), under either drop policy, on Baseline,
// Pseudo+S+B or the EVC router, with reliable delivery on or off. Each input
// runs 1 000 cycles of uniform traffic on the naive and the active-set
// schedule with CheckInvariants on every cycle, then drains without traffic.
// Both runs must leave the same Stats and per-router rows, and the drain must
// end within its bound with every router's invariants intact. The drain
// checks them at its end only: when churn cuts a live router off for good,
// the stale sweep frees its source queue four packets per staleLimit, and
// corpus entry cut-off-routers-drain (nearly every link down at the horizon,
// reliable delivery on) drains in 319 250 cycles. The corpus starts from
// TestFaultedDeterminismTriangle's points; evc-express-after-link-up is an
// express flit that an up event once turned at the router it bypasses.
func FuzzFaultedKernel(f *testing.F) {
	const cycles, drainBound = 1000, 1_000_000
	// Each triangle point seeds a churn of the fault kinds it schedules, on
	// its scheme and under its policy; reliable delivery alternates.
	for i, g := range faultGrids {
		scheme := map[core.Scheme]uint8{core.Baseline: 0, core.PseudoSB: 1}[g.scheme]
		if g.evc {
			scheme = 2
		}
		var linkFail, routerFail float64
		for _, e := range g.sched.Events {
			switch e.Kind {
			case fault.LinkDown:
				linkFail = 5e-4
			case fault.RouterDown:
				routerFail = 1e-4
			}
		}
		f.Add(uint64(i+1), linkFail, 0.01, routerFail, 0.01, g.sched.Policy == fault.Reroute, scheme, i%2 == 1)
	}
	m := topology.NewMesh(4, 4)
	f.Fuzz(func(t *testing.T, seed uint64, linkFail, linkRepair, routerFail, routerRepair float64,
		reroute bool, scheme uint8, reliable bool) {
		// Fold any float into a probability in [0, 1).
		prob := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(math.Abs(x), 1)
		}
		c := fault.Churn{Seed: seed, LinkFail: prob(linkFail), LinkRepair: prob(linkRepair),
			RouterFail: prob(routerFail), RouterRepair: prob(routerRepair)}
		if reroute {
			c.Policy = fault.Reroute
		}
		sched, err := c.Expand(m, cycles)
		if err != nil {
			t.Skip(err) // more events than a schedule may hold
		}
		sc, evc := []core.Scheme{core.Baseline, core.PseudoSB, core.Baseline}[scheme%3], scheme%3 == 2
		build := buildFaulted
		if reliable {
			build = buildReliable
		}
		run := func(k kernel) *network.Network {
			n := build(sc, k, sched, evc)
			n.Run(traffic.NewSynthetic(traffic.Config{
				Pattern: traffic.UniformRandom, Nodes: m.Nodes(), Rate: 0.15,
			}, sim.NewRNG(seed)), cycles)
			n.CheckInvariants = false
			if !n.Drain(nil, drainBound) {
				t.Fatalf("%s: %d packets and %d sender records left after a %d-cycle drain",
					k.name, n.InFlight(), n.RelPending(), drainBound)
			}
			for r := 0; r < m.Routers(); r++ {
				n.Router(r).CheckInvariants()
			}
			return n
		}
		sameRun(t, kernels[0].name, kernels[1].name, run(kernels[0]), run(kernels[1]))
	})
}
