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

// TestLaneStoreRoundTrip drives two identically seeded networks — the naive
// reference and the active-set schedule, both over the shared
// structure-of-arrays LaneStore — through randomized tick bursts and, after each burst, checks the layout from both
// sides:
//
//   - flat view: LaneStore.CheckConsistency re-derives the occupancy index
//     from the buffers and the PCByOut reverse index from the registers and
//     their valid bits, for every router;
//   - struct view: LaneStore.View materializes each lane back into the
//     pre-SoA struct shape, and the schedules' views must be deeply equal
//     lane by lane, as must the packet each lane's owner names (its ID and
//     route class, the fields VA and the fault sweeps read through it),
//     their credit counters and pseudo-circuit registers — the flat layout
//     holds exactly the state the struct layout would, whichever schedule
//     mutated it, at every burst and not only in the end-of-run totals the
//     determinism harness compares.
//
// The EVC comparison router lives in the same store (it is a policy on the
// same pipeline), so the whole check runs on it too; O1TURN puts packets of
// both route classes in the lanes.
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
	// int8 would hold, so the store's int16 counters are what carries them.
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
		if n.Lanes() == nil {
			t.Fatal("every network must own a LaneStore")
		}
		legs = append(legs, leg{k.name, n, w})
	}

	rng := sim.NewRNG(99)
	for trial := 0; trial < 40; trial++ {
		burst := 1 + rng.Intn(13)
		for _, l := range legs {
			for i := 0; i < burst; i++ {
				l.net.Step(l.w)
			}
			s := l.net.Lanes()
			for r := 0; r < topo.Routers(); r++ {
				inBase, outBase := s.InBase[r], s.OutBase[r]
				nIn, nOut := s.InBase[r+1]-inBase, s.OutBase[r+1]-outBase
				if err := s.CheckConsistency(r, inBase, nIn, outBase, nOut); err != nil {
					t.Fatalf("trial %d, %s: %v", trial, l.name, err)
				}
			}
		}
		ref := legs[0]
		for _, l := range legs[1:] {
			if err := sameLanes(ref.net, l.net); err != nil {
				t.Fatalf("trial %d: %s vs %s: %v", trial, ref.name, l.name, err)
			}
			a, b := ref.net.Lanes(), l.net.Lanes()
			// What View leaves out: credit counters and output-VC ownership
			// per output lane, the pseudo-circuit register file per input
			// port with its valid bits, the speculation history per output
			// port with its own.
			valid := func(s *core.LaneStore) (v, h []uint64) {
				for i := range s.Regs {
					v, h = append(v, s.Regs[i].ValidMask), append(h, s.Regs[i].HistMask)
				}
				return v, h
			}
			av, ah := valid(a)
			bv, bh := valid(b)
			for _, f := range []struct {
				name     string
				ref, got any
			}{
				{"Credits", a.Credits, b.Credits}, {"VCBusy", a.VCBusy, b.VCBusy},
				{"PCInVC", a.PCInVC, b.PCInVC}, {"PCOut", a.PCOut, b.PCOut},
				{"ValidMask", av, bv}, {"PCSpec", a.PCSpec, b.PCSpec},
				{"HistIn", a.HistIn, b.HistIn}, {"HistMask", ah, bh},
			} {
				if !reflect.DeepEqual(f.ref, f.got) {
					t.Fatalf("trial %d: %s diverges:\n%s: %v\n%s: %v", trial, f.name, ref.name, f.ref, l.name, f.got)
				}
			}
		}
	}
}

// sameLanes reports the first input lane at which two networks differ, in
// its struct view or in the packet its owner names.
func sameLanes(a, b *network.Network) error {
	sa, sb := a.Lanes(), b.Lanes()
	pa, pb := a.LanePackets(), b.LanePackets()
	for p := 0; p < len(sa.Occ); p++ {
		for vc := 0; vc < sa.NumVCs; vc++ {
			if va, vb := sa.View(p, vc), sb.View(p, vc); va != vb {
				return fmt.Errorf("lane view diverges at port %d vc %d: %+v / %+v", p, vc, va, vb)
			}
			if l := p*sa.NumVCs + vc; pa[l] != pb[l] {
				return fmt.Errorf("lane at port %d vc %d names packet %+v / %+v", p, vc, pa[l], pb[l])
			}
		}
	}
	return nil
}

// TestLaneComparisonSeesPackets is the failing case of the per-lane packet
// comparison: two runs that differ only in the IDs the network hands out fill
// every lane identically, so their struct views agree at every burst, and
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
		a, b := nets[0].Lanes(), nets[1].Lanes()
		for p := 0; p < len(a.Occ); p++ {
			for vc := 0; vc < a.NumVCs; vc++ {
				if va, vb := a.View(p, vc), b.View(p, vc); va != vb {
					t.Fatalf("cycle %d: packet IDs moved lane state at port %d vc %d: %+v / %+v", cycle, p, vc, va, vb)
				}
			}
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

// TestLaneStorePerRouterRanges pins the index scheme the flat layout is
// built on (DESIGN.md §17): InBase/OutBase are prefix sums over the
// topology's radices, so every router owns one contiguous lane range and the
// array lengths are exactly the range totals.
func TestLaneStorePerRouterRanges(t *testing.T) {
	topo := topology.NewMECS(3, 3, 2) // asymmetric radix: inputs != outputs
	cfg := network.DefaultConfig(topo)
	n := network.New(cfg)
	s := n.Lanes()
	for r := 0; r < topo.Routers(); r++ {
		if got := s.InBase[r+1] - s.InBase[r]; got != topo.InPorts(r) {
			t.Errorf("router %d: InBase radix %d, topology says %d", r, got, topo.InPorts(r))
		}
		if got := s.OutBase[r+1] - s.OutBase[r]; got != topo.OutPorts(r) {
			t.Errorf("router %d: OutBase radix %d, topology says %d", r, got, topo.OutPorts(r))
		}
	}
	nIn := s.InBase[topo.Routers()]
	nOut := s.OutBase[topo.Routers()]
	if len(s.BufLen) != nIn*cfg.NumVCs || len(s.Occ) != nIn {
		t.Errorf("input arrays sized %d/%d, want %d lanes / %d ports", len(s.BufLen), len(s.Occ), nIn*cfg.NumVCs, nIn)
	}
	if len(s.Credits) != nOut*cfg.NumVCs || len(s.PCByOut) != nOut {
		t.Errorf("output arrays sized %d/%d, want %d lanes / %d ports", len(s.Credits), len(s.PCByOut), nOut*cfg.NumVCs, nOut)
	}
}
