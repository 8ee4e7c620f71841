package network_test

import (
	"fmt"
	"testing"

	"pseudocircuit/internal/cmp"
	"pseudocircuit/internal/core"
	"pseudocircuit/internal/fault"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
)

// memoHits fails the test unless n's hop memo answered some sends itself:
// with CheckInvariants on, each of those was compared with a fresh NextHop
// and lookahead route, so a run without hits would have checked nothing.
func memoHits(t *testing.T, n *network.Network) {
	t.Helper()
	sends := n.Registry().Totals().Traversals
	if misses := n.HopMisses(); misses == 0 || misses >= sends {
		t.Fatalf("%d hop misses in %d sends: the memo answered none", misses, sends)
	}
}

// TestHopMemoMatchesTopology runs the hop memo under its oracle: with
// CheckInvariants on, every send the memo answers resolves the hop again and
// panics on a difference. It covers every topology family × XY/YX/O1TURN
// (O1TURN puts two route classes on one lane over time), a CMP point, whose
// requests are mostly one flit and so hit only where a lane's last packet had
// the same destination and class, and a faulted run whose link goes down and
// comes back mid-run, with packets detouring around it in between.
func TestHopMemoMatchesTopology(t *testing.T) {
	for _, topo := range []topology.Topology{
		topology.NewMesh(4, 4),
		topology.NewCMesh(4, 4, 4),
		topology.NewMECS(4, 4, 4),
		topology.NewFBFly(4, 4, 4),
	} {
		for _, algo := range []routing.Algorithm{routing.XY, routing.YX, routing.O1TURN} {
			t.Run(fmt.Sprintf("%s/%v", topo.Name(), algo), func(t *testing.T) {
				cfg := network.DefaultConfig(topo)
				cfg.Opts = core.DefaultOptions(core.PseudoSB)
				cfg.Algorithm = algo
				n := network.New(cfg)
				n.CheckInvariants = true
				n.Run(traffic.NewSynthetic(traffic.Config{
					Pattern: traffic.UniformRandom, Nodes: topo.Nodes(), Rate: 0.2,
				}, sim.NewRNG(7)), 1500)
				memoHits(t, n)
			})
		}
	}

	t.Run("cmp", func(t *testing.T) {
		prof, _ := cmp.ProfileByName("fft")
		topo := topology.NewCMesh(4, 4, 4)
		n := network.New(network.DefaultConfig(topo))
		n.CheckInvariants = true
		w := cmp.New(topo, cmp.PaperTableI(), prof, sim.NewRNG(1))
		w.MaxMisses = 2000
		if !n.Drain(w, 200000) {
			t.Fatal("the workload did not drain")
		}
		memoHits(t, n)
	})

	t.Run("faulted", func(t *testing.T) {
		sched := &fault.Schedule{Policy: fault.Reroute}
		for c := int64(500); c < 1500; c += 200 {
			sched.Events = append(sched.Events,
				fault.Event{Cycle: c, Kind: fault.LinkDown, Router: 5, Port: topology.PortS},
				fault.Event{Cycle: c + 100, Kind: fault.LinkUp, Router: 5, Port: topology.PortS})
		}
		n := buildFaulted(core.Baseline, kernels[1], sched)
		n.Run(traffic.NewSynthetic(traffic.Config{
			Pattern: traffic.UniformRandom, Nodes: 16, Rate: 0.3,
		}, sim.NewRNG(42)), 2000)
		if n.Stats.FaultEvents != uint64(len(sched.Events)) {
			t.Fatalf("%d fault events applied, want %d", n.Stats.FaultEvents, len(sched.Events))
		}
		memoHits(t, n)
	})
}

// nextHopCounter counts the topology's NextHop calls. The embedded
// topology's Links calls its own NextHop, so the build's walk is not counted.
type nextHopCounter struct {
	topology.Topology
	calls uint64
}

func (c *nextHopCounter) NextHop(r, out, dst int) topology.Hop {
	c.calls++
	return c.Topology.NextHop(r, out, dst)
}

// TestHopResolvedOncePerPacket pins the memo's cost as counts on a fixed 4×4
// run of 5-flit packets: the topology is asked NextHop exactly once per memo
// miss and nowhere else, and a miss is at most one per header traversal —
// the body and tail flits behind a header find its entry.
func TestHopResolvedOncePerPacket(t *testing.T) {
	c := &nextHopCounter{Topology: topology.NewMesh(4, 4)}
	n := network.New(network.DefaultConfig(c))
	n.Run(traffic.NewSynthetic(traffic.Config{
		Pattern: traffic.UniformRandom, Nodes: 16, Rate: 0.2, PacketSize: 5,
	}, sim.NewRNG(3)), 2000)
	tot := n.Registry().Totals()
	misses := n.HopMisses()
	if c.calls != misses {
		t.Errorf("%d NextHop calls for %d hop misses", c.calls, misses)
	}
	if misses == 0 || misses > tot.HeadTravs {
		t.Errorf("%d hop misses for %d header traversals (%d traversals)", misses, tot.HeadTravs, tot.Traversals)
	}
}
