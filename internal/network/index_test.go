package network_test

import (
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/fault"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
)

// TestWorkIndexesOffWordBoundaries runs the determinism pair where the
// word-packed indexes are awkward: a 9×9 mesh has 81 routers and NIs, so each
// index is one full word and a 17-bit tail that setAll (the naive reference,
// and wakeAll on every fault event) must mask. CheckInvariants is on, so every
// cycle verifies that each NI holding a packet and each non-quiescent router
// has its bit. The faulted and the reliable schedules purge packets out of
// source queues and router buffers without telling the indexes, and wake every
// router on each event.
func TestWorkIndexesOffWordBoundaries(t *testing.T) {
	m := topology.NewMesh(9, 9)
	churned, err := fault.Churn{
		Seed: 1, LinkFail: 3e-4, LinkRepair: 0.01,
		RouterFail: 2e-5, RouterRepair: 0.01, Policy: fault.Drop,
	}.Expand(m, 3000)
	if err != nil {
		t.Fatalf("expanding churn: %v", err)
	}
	for _, tc := range []struct {
		name   string
		rate   float64
		faults *fault.Schedule
		rel    *network.Reliability
		purges func(n *network.Network) bool // the schedule did what it is here for
	}{
		{name: "sparse", rate: 0.01},
		{
			// Router 40 is the centre: all four ports wired.
			name: "faulted", rate: 0.30,
			faults: &fault.Schedule{Policy: fault.Reroute, Events: []fault.Event{
				{Cycle: 650, Kind: fault.LinkDown, Router: 40, Port: 0},
				{Cycle: 900, Kind: fault.RouterDown, Router: 30},
				{Cycle: 1500, Kind: fault.LinkUp, Router: 40, Port: 0},
				{Cycle: 1900, Kind: fault.RouterUp, Router: 30},
			}},
			purges: func(n *network.Network) bool { return n.Stats.PacketsDropped > 0 },
		},
		{
			name: "reliable", rate: 0.10, faults: churned,
			rel:    &network.Reliability{Timeout: 64, MaxTimeout: 256, Budget: 8},
			purges: func(n *network.Network) bool { return n.Stats.PacketsRetransmitted > 0 },
		},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			run := func(k kernel) *network.Network {
				cfg := network.DefaultConfig(m)
				cfg.Opts = core.DefaultOptions(core.PseudoSB)
				cfg.Naive = k.naive
				cfg.Faults = tc.faults
				cfg.Reliable = tc.rel
				n := network.New(cfg)
				n.CheckInvariants = true
				w := traffic.NewSynthetic(traffic.Config{
					Pattern: traffic.UniformRandom, Nodes: m.Nodes(), Rate: tc.rate,
				}, sim.NewRNG(42))
				n.Run(w, 500)
				n.ResetStats()
				n.Run(w, 2500)
				return n
			}
			ref := run(kernels[0])
			if tc.purges != nil && !tc.purges(ref) {
				t.Error("schedule purged nothing; case exercises no stale index bit")
			}
			for _, k := range kernels[1:] {
				sameRun(t, kernels[0].name, k.name, ref, run(k))
			}
		})
	}
}
