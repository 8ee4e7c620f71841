package network_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
	"pseudocircuit/internal/vcalloc"
)

// TestLaneStoreRoundTrip drives two identically seeded networks — the naive
// reference and the active-set schedule, both carving every router's state
// from one slab — through randomized tick bursts and, after each burst,
// compares them router by router: every narrow slice the router keeps (its
// lane, credit and port records, its census, its register file's registers)
// and the register file's mask words (RouterState), and the packet each
// lane's owner names (its ID and route class, the fields VA and the fault
// sweeps read through it). The state must be equal whichever schedule mutated
// it, at every burst and not only in the end-of-run totals the determinism
// harness compares. Within each network, CheckInvariants re-derives every
// router's occupancy index from its buffers and RegFile.Check every derived
// register structure from the registers, every cycle.
//
// The EVC comparison router carves its state from the same slab (it is a
// policy on the same pipeline), so the whole check runs on it too; O1TURN puts
// packets of both route classes in the lanes.
func TestLaneStoreRoundTrip(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	t.Run("psb", func(t *testing.T) {
		laneStoreRoundTrip(t, topo, func(k kernel) *network.Network {
			return buildKernel(topo, core.PseudoSB, routing.XY, vcalloc.Static, k)
		})
	})
	t.Run("o1turn", func(t *testing.T) {
		laneStoreRoundTrip(t, topo, func(k kernel) *network.Network {
			return buildKernel(topo, core.PseudoSB, routing.O1TURN, vcalloc.Dynamic, k)
		})
	})
	t.Run("evc", func(t *testing.T) {
		laneStoreRoundTrip(t, topo, func(k kernel) *network.Network {
			return buildFaulted(core.Baseline, k, nil, true)
		})
	})
	// The service's deepest buffer: credits start at 1 024, past what an
	// int8 would hold, so the routers' int16 counters are what carries them.
	t.Run("depth1024", func(t *testing.T) {
		laneStoreRoundTrip(t, topo, func(k kernel) *network.Network {
			return buildKernelOpts(topo, core.DefaultOptions(core.PseudoSB), 4, 1024, routing.XY, vcalloc.Dynamic, k)
		})
	})
}

func laneStoreRoundTrip(t *testing.T, topo topology.Topology, build func(k kernel) *network.Network) {
	type leg struct {
		name string
		net  *network.Network
		w    network.Workload
	}
	var legs []leg
	for _, k := range kernels {
		n := build(k)
		w := traffic.NewSynthetic(traffic.Config{
			Pattern: traffic.UniformRandom, Nodes: topo.Nodes(), Rate: 0.12,
		}, sim.NewRNG(11))
		legs = append(legs, leg{k.name, n, w})
	}
	state := legs[0].net.RouterState(0)
	for _, name := range []string{"bufLen", "outPort", "outVC", "occ", "act", "va", "credits", "vcBusy",
		"pc.InVC", "pc.Out", "pc.Spec", "pc.HistIn", "pc.ByOut", "pc.ValidMask", "pc.HistMask", "pc.HeldMask"} {
		if _, ok := state[name]; !ok {
			t.Fatalf("RouterState has no %s", name)
		}
	}

	rng := sim.NewRNG(99)
	for trial := 0; trial < 40; trial++ {
		burst := 1 + rng.Intn(13)
		for _, l := range legs {
			for i := 0; i < burst; i++ {
				l.net.Step(l.w)
			}
		}
		ref := legs[0]
		for _, l := range legs[1:] {
			if err := sameLanes(ref.net, l.net); err != nil {
				t.Fatalf("trial %d: %s vs %s: %v", trial, ref.name, l.name, err)
			}
		}
	}
}

// sameState reports the first router slice at which two networks differ.
func sameState(a, b *network.Network) error {
	for r := 0; r < a.Topology().Routers(); r++ {
		sa, sb := a.RouterState(r), b.RouterState(r)
		names := make([]string, 0, len(sa))
		for name := range sa {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if !slices.Equal(sa[name], sb[name]) {
				return fmt.Errorf("router %d %s diverges: %v / %v", r, name, sa[name], sb[name])
			}
		}
	}
	return nil
}

// sameLanes reports the first router slice or input lane at which two
// networks differ: in the state or in the packet the lane's owner names.
func sameLanes(a, b *network.Network) error {
	if err := sameState(a, b); err != nil {
		return err
	}
	pa, pb := a.LanePackets(), b.LanePackets()
	for l := range pa {
		if pa[l] != pb[l] {
			return fmt.Errorf("input lane %d names packet %+v / %+v", l, pa[l], pb[l])
		}
	}
	return nil
}

// TestLaneComparisonSeesPackets is the failing case of the per-lane packet
// comparison: two runs that differ only in the IDs the network hands out fill
// every lane identically, so their router state agrees at every cycle, and
// sameLanes must still tell them apart by the packets the lanes name.
func TestLaneComparisonSeesPackets(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	var nets [2]*network.Network
	var ws [2]network.Workload
	for i := range nets {
		nets[i] = buildKernel(topo, core.PseudoSB, routing.O1TURN, vcalloc.Dynamic, kernels[1])
		ws[i] = traffic.NewSynthetic(traffic.Config{
			Pattern: traffic.UniformRandom, Nodes: topo.Nodes(), Rate: 0.12,
		}, sim.NewRNG(11))
	}
	nets[1].SkipPacketIDs(1 << 40)
	caught, class1 := false, false
	for cycle := 0; cycle < 200 && !(caught && class1); cycle++ {
		for i := range nets {
			nets[i].Step(ws[i])
		}
		if err := sameState(nets[0], nets[1]); err != nil {
			t.Fatalf("cycle %d: packet IDs moved router state: %v", cycle, err)
		}
		caught = sameLanes(nets[0], nets[1]) != nil
		for _, lp := range nets[0].LanePackets() {
			class1 = class1 || lp.RouteClass == 1
		}
	}
	if !caught {
		t.Fatal("sameLanes never told apart two runs whose lanes name different packets")
	}
	if !class1 {
		t.Fatal("no lane named a class-1 packet: the route class comparison saw only zeros")
	}
}
