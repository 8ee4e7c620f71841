package network_test

import (
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/flit"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
	"pseudocircuit/internal/vcalloc"
)

func build(t *testing.T, topo topology.Topology, scheme core.Scheme, algo routing.Algorithm, pol vcalloc.Policy) *network.Network {
	t.Helper()
	cfg := network.DefaultConfig(topo)
	cfg.Opts = core.DefaultOptions(scheme)
	cfg.Algorithm = algo
	cfg.Policy = pol
	n := network.New(cfg)
	n.CheckInvariants = true
	return n
}

// TestAllTopologiesDeliver: every topology delivers every pattern's traffic
// with all schemes, under invariant checking.
func TestAllTopologiesDeliver(t *testing.T) {
	topos := []func() topology.Topology{
		func() topology.Topology { return topology.NewMesh(4, 4) },
		func() topology.Topology { return topology.NewCMesh(3, 3, 4) },
		func() topology.Topology { return topology.NewMECS(3, 3, 2) },
		func() topology.Topology { return topology.NewFBFly(3, 3, 2) },
	}
	for _, mk := range topos {
		for _, scheme := range []core.Scheme{core.Baseline, core.PseudoSB} {
			topo := mk()
			n := build(t, topo, scheme, routing.XY, vcalloc.Static)
			w := traffic.NewSynthetic(traffic.Config{
				Pattern: traffic.UniformRandom, Nodes: topo.Nodes(), Rate: 0.08,
			}, sim.NewRNG(5))
			n.Run(w, 3000)
			if n.Stats.PacketsDelivered < 100 {
				t.Errorf("%s/%v: only %d packets delivered", topo.Name(), scheme, n.Stats.PacketsDelivered)
			}
		}
	}
}

// TestDrainToQuiescence: after sources stop, the network fully drains.
func TestDrainToQuiescence(t *testing.T) {
	n := build(t, topology.NewMesh(4, 4), core.PseudoSB, routing.XY, vcalloc.Dynamic)
	w := traffic.NewFlows(
		traffic.Flow{Src: 0, Dst: 15, Size: 5, Period: 3, Count: 50},
		traffic.Flow{Src: 12, Dst: 3, Size: 1, Period: 2, Count: 80},
		traffic.Flow{Src: 5, Dst: 10, Size: 5, Period: 7, Count: 20},
	)
	if !n.Drain(w, 10000) {
		t.Fatalf("drain failed: inflight=%d queued=%d", n.InFlight(), n.QueuedPackets())
	}
	if !n.Quiescent() || n.QueuedPackets() != 0 {
		t.Fatalf("not quiescent after drain: %d packets queued", n.QueuedPackets())
	}
	if n.Stats.PacketsDelivered != 150 {
		t.Fatalf("delivered %d, want 150", n.Stats.PacketsDelivered)
	}
}

// TestPacketConservation: every injected packet is delivered exactly once
// with all its flits, to the right node.
func TestPacketConservation(t *testing.T) {
	topo := topology.NewCMesh(3, 3, 4)
	cfg := network.DefaultConfig(topo)
	cfg.Opts = core.DefaultOptions(core.PseudoSB)
	n := network.New(cfg)
	n.CheckInvariants = true

	w := &conservationWorkload{rng: sim.NewRNG(21), nodes: topo.Nodes(), want: 400}
	if !n.Drain(w, 100000) {
		t.Fatalf("drain failed with %d in flight", n.InFlight())
	}
	if w.delivered != w.want {
		t.Fatalf("delivered %d, want %d", w.delivered, w.want)
	}
	if len(w.outstanding) != 0 {
		t.Fatalf("%d packets never delivered", len(w.outstanding))
	}
}

type conservationWorkload struct {
	rng         *sim.RNG
	nodes       int
	want        int
	sent        int
	delivered   int
	outstanding map[uint64]int // id -> dst
}

func (w *conservationWorkload) Tick(now sim.Cycle, inj network.Injector) {
	if w.outstanding == nil {
		w.outstanding = make(map[uint64]int)
	}
	for i := 0; i < 2 && w.sent < w.want; i++ {
		src := w.rng.Intn(w.nodes)
		dst := w.rng.Intn(w.nodes - 1)
		if dst >= src {
			dst++
		}
		p := &flit.Packet{Src: src, Dst: dst, Size: 1 + w.rng.Intn(5)}
		inj.Inject(p)
		w.outstanding[p.ID] = dst
		w.sent++
	}
}

func (w *conservationWorkload) Deliver(now sim.Cycle, p *flit.Packet) {
	dst, ok := w.outstanding[p.ID]
	if !ok {
		panic("duplicate or unknown delivery")
	}
	if dst != p.Dst {
		panic("delivered to the wrong node")
	}
	delete(w.outstanding, p.ID)
	w.delivered++
}

func (w *conservationWorkload) Done() bool { return w.sent >= w.want }

// TestInjectValidation: malformed packets are rejected loudly.
func TestInjectValidation(t *testing.T) {
	n := build(t, topology.NewMesh(4, 4), core.Baseline, routing.XY, vcalloc.Dynamic)
	for name, p := range map[string]*flit.Packet{
		"self":     {Src: 3, Dst: 3, Size: 1},
		"oob-dst":  {Src: 0, Dst: 16, Size: 1},
		"zero-len": {Src: 0, Dst: 1, Size: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s packet accepted", name)
				}
			}()
			n.Inject(p)
		}()
	}
}

// TestMeasurementWindow: packets injected before ResetStats are excluded
// from latency samples but still delivered.
func TestMeasurementWindow(t *testing.T) {
	n := build(t, topology.NewMesh(4, 4), core.Baseline, routing.XY, vcalloc.Dynamic)
	w := traffic.NewFlows(traffic.Flow{Src: 0, Dst: 15, Size: 1, Period: 10, Count: 5})
	n.Run(w, 49) // all 5 injected before the window
	n.ResetStats()
	n.Drain(nil, 1000)
	if n.Stats.LatencySamples != 0 {
		t.Fatalf("pre-window packets sampled: %d", n.Stats.LatencySamples)
	}
	if n.Stats.PacketsDelivered == 0 {
		t.Fatal("pre-window packets not delivered")
	}
}

// TestLinkLoads: the utilization report is flit-conserving, sorted, and
// covers the measurement window like every other figure.
func TestLinkLoads(t *testing.T) {
	n := build(t, topology.NewMesh(4, 4), core.PseudoSB, routing.XY, vcalloc.Static)
	w := traffic.NewFlows(traffic.Flow{Src: 0, Dst: 3, Size: 5, Period: 10, Count: 30})
	if !n.Drain(w, 5000) {
		t.Fatal("drain failed")
	}
	loads := n.LinkLoads()
	if len(loads) == 0 {
		t.Fatal("no link loads recorded")
	}
	for i := 1; i < len(loads); i++ {
		if loads[i].Flits > loads[i-1].Flits {
			t.Fatal("loads not sorted")
		}
	}
	// The flow crosses routers 0->1->2->3 along row 0: each of the three
	// row links carries all 150 flits; the ejection port at router 3 too.
	var total uint64
	ejections := 0
	for _, l := range loads {
		total += l.Flits
		if l.Ejection {
			ejections++
			if l.Router != 3 {
				t.Errorf("ejection traffic at router %d, want 3", l.Router)
			}
		}
		if l.Utilization < 0 || l.Utilization > 1 {
			t.Errorf("utilization %v out of range", l.Utilization)
		}
	}
	// 150 flits times 4 channels (3 links + 1 ejection).
	if total != 600 {
		t.Fatalf("total channel flits = %d, want 600", total)
	}
	if ejections != 1 {
		t.Fatalf("ejection channels = %d, want 1", ejections)
	}

	// A reset starts the window over: the 600 warmup flits above are gone, and
	// a second flow's 10 packets are divided by the cycles since the reset.
	n.ResetStats()
	from := n.Now()
	if !n.Drain(traffic.NewFlows(traffic.Flow{Src: 0, Dst: 3, Size: 5, Period: 10, Start: from, Count: 10}), 5000) {
		t.Fatal("second drain failed")
	}
	loads = n.LinkLoads()
	if len(loads) != 4 {
		t.Fatalf("%d channels after the reset, want 4", len(loads))
	}
	for _, l := range loads {
		if want := 50 / float64(n.Now()-from); l.Flits != 50 || l.Utilization != want {
			t.Errorf("router %d out %d: %d flits at %v per cycle after the reset, want 50 at %v (warmup counted?)",
				l.Router, l.Out, l.Flits, l.Utilization, want)
		}
	}
}
