package routing_test

import (
	"testing"

	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
)

func TestNumClasses(t *testing.T) {
	m := topology.NewMesh(4, 4)
	if got := routing.New(routing.XY, m).NumClasses(); got != 1 {
		t.Errorf("XY classes = %d", got)
	}
	if got := routing.New(routing.YX, m).NumClasses(); got != 1 {
		t.Errorf("YX classes = %d", got)
	}
	if got := routing.New(routing.O1TURN, m).NumClasses(); got != 2 {
		t.Errorf("O1TURN classes = %d", got)
	}
}

func TestClassForDistribution(t *testing.T) {
	e := routing.New(routing.O1TURN, topology.NewMesh(4, 4))
	rng := sim.NewRNG(1)
	counts := [2]int{}
	for i := 0; i < 10000; i++ {
		counts[e.ClassFor(rng)]++
	}
	if counts[0] < 4500 || counts[0] > 5500 {
		t.Errorf("O1TURN class split %v not ~uniform", counts)
	}
	e = routing.New(routing.XY, topology.NewMesh(4, 4))
	for i := 0; i < 100; i++ {
		if e.ClassFor(rng) != 0 {
			t.Fatal("XY chose a nonzero class")
		}
	}
}

func TestXYvsYXOrder(t *testing.T) {
	m := topology.NewMesh(4, 4)
	// From router 0 (0,0) to node 15 at router (3,3): XY goes East first,
	// YX goes South first.
	xy := routing.New(routing.XY, m)
	yx := routing.New(routing.YX, m)
	if got := xy.Route(0, 15, 0); got != topology.PortE {
		t.Errorf("XY first hop = %d, want E", got)
	}
	if got := yx.Route(0, 15, 0); got != topology.PortS {
		t.Errorf("YX first hop = %d, want S", got)
	}
}

func TestO1TURNClassSelectsOrder(t *testing.T) {
	m := topology.NewMesh(4, 4)
	e := routing.New(routing.O1TURN, m)
	if got := e.Route(0, 15, 0); got != topology.PortE {
		t.Errorf("O1TURN class 0 first hop = %d, want E (XY)", got)
	}
	if got := e.Route(0, 15, 1); got != topology.PortS {
		t.Errorf("O1TURN class 1 first hop = %d, want S (YX)", got)
	}
}

// TestRoutesTerminate walks every (src router, dst node, class, algorithm)
// pair to the destination, bounding hop count by the network diameter.
func TestRoutesTerminate(t *testing.T) {
	topos := []topology.Topology{
		topology.NewMesh(4, 4),
		topology.NewCMesh(3, 3, 4),
		topology.NewMECS(4, 4, 2),
		topology.NewFBFly(4, 4, 2),
	}
	algos := []routing.Algorithm{routing.XY, routing.YX, routing.O1TURN}
	for _, topo := range topos {
		for _, algo := range algos {
			e := routing.New(algo, topo)
			for r := 0; r < topo.Routers(); r++ {
				for d := 0; d < topo.Nodes(); d++ {
					for class := 0; class < e.NumClasses(); class++ {
						walk(t, topo, e, r, d, class)
					}
				}
			}
		}
	}
}

func walk(t *testing.T, topo topology.Topology, e *routing.Engine, r, dst, class int) {
	t.Helper()
	cur := r
	for hops := 0; ; hops++ {
		if hops > topo.Routers()+2 {
			t.Fatalf("%s/%v: route %d->node %d class %d did not terminate", topo.Name(), e.Algorithm(), r, dst, class)
		}
		out := e.Route(cur, dst, class)
		h := topo.NextHop(cur, out, dst)
		if h.Router < 0 {
			if h.InPort != dst {
				t.Fatalf("%s: route %d->%d ejected at node %d", topo.Name(), r, dst, h.InPort)
			}
			return
		}
		cur = h.Router
	}
}
