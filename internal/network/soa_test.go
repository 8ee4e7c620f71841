package network_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"pseudocircuit/internal/network"
	"pseudocircuit/internal/sim"
	"pseudocircuit/noc"
	"pseudocircuit/nocdclient"
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
	for _, tc := range []struct {
		name string
		spec noc.Spec
	}{
		{"psb", noc.Spec{Scheme: "pseudo+s+b", VA: "static"}},
		{"o1turn", noc.Spec{Scheme: "pseudo+s+b", Routing: "o1turn"}},
		{"evc", noc.Spec{Scheme: "baseline", VA: "static", UseEVC: true}},
		// The service's deepest buffer: credits start at 1 024, past what an
		// int8 would hold, so the routers' int16 counters are what carries
		// them.
		{"depth1024", noc.Spec{Scheme: "pseudo+s+b", BufDepth: 1024}},
	} {
		t.Run(tc.name, func(t *testing.T) { laneStoreRoundTrip(t, laneRequest(tc.spec)) })
	}
}

// laneRequest is spec on a 4×4 mesh under uniform-random traffic at 0.12
// flits/node/cycle.
func laneRequest(spec noc.Spec) nocdclient.Request {
	spec.Topology, spec.Seed = "mesh4x4", 11
	return nocdclient.Request{Spec: spec, Workload: noc.WorkloadSpec{Rate: 0.12}}
}

func laneStoreRoundTrip(t *testing.T, req nocdclient.Request) {
	type leg struct {
		name string
		net  *network.Network
		w    network.Workload
	}
	var legs []leg
	for _, k := range kernels {
		_, n, w := specNet(t, req, k)
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
	var nets [2]*network.Network
	var ws [2]network.Workload
	for i := range nets {
		_, nets[i], ws[i] = specNet(t, laneRequest(noc.Spec{Scheme: "pseudo+s+b", Routing: "o1turn"}), kernels[1])
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
