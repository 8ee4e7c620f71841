package routing_test

import (
	"testing"

	"pseudocircuit/internal/fault"
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

func TestAlgorithmStrings(t *testing.T) {
	for a, want := range map[routing.Algorithm]string{
		routing.XY: "XY", routing.YX: "YX", routing.O1TURN: "O1TURN", routing.Algorithm(7): "Algorithm(7)",
	} {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
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
						walk(t, topo, algo, e, r, d, class)
					}
				}
			}
		}
	}
}

func walk(t *testing.T, topo topology.Topology, algo routing.Algorithm, e *routing.Engine, r, dst, class int) {
	t.Helper()
	cur := r
	for hops := 0; ; hops++ {
		if hops > topo.Routers()+2 {
			t.Fatalf("%s/%v: route %d->node %d class %d did not terminate", topo.Name(), algo, r, dst, class)
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

// TestRouteAvoid pins RouteAvoid's documented order. A nil view is Route, at
// every router, destination and class. Under a live view each case below is
// one step of the order, on the routers of a Mesh(4,4): 5 sits at (1,1) with
// every direction wired, 4 at (0,1) has no west neighbour. Node n is router
// n's, so node 6 is one hop east of router 5 and node 10 one east and one
// south. An ejection port is never detoured, even when its router is down.
func TestRouteAvoid(t *testing.T) {
	for _, topo := range []topology.Topology{topology.NewMesh(4, 4), topology.NewCMesh(4, 4, 4)} {
		e := routing.New(routing.O1TURN, topo)
		for r := 0; r < topo.Routers(); r++ {
			for d := 0; d < topo.Nodes(); d++ {
				for class := 0; class < e.NumClasses(); class++ {
					if got, want := e.RouteAvoid(r, d, class, nil), e.Route(r, d, class); got != want {
						t.Errorf("%s: RouteAvoid(%d, %d, %d, nil) = %d, Route = %d", topo.Name(), r, d, class, got, want)
					}
				}
			}
		}
	}

	m := topology.NewMesh(4, 4)
	e := routing.New(routing.XY, m)
	const E, W, N, S = topology.PortE, topology.PortW, topology.PortN, topology.PortS
	for _, c := range []struct {
		name    string
		r, dst  int
		st      *fault.State
		want    int
		nominal int
	}{
		{"nominal port alive", 5, 10, view(t, m, [2]int{5, S}, [2]int{5, W}), E, E},
		{"other dimension's step", 5, 10, view(t, m, [2]int{5, E}), S, E},
		{"first live port in E, W, N, S order", 5, 6, view(t, m, [2]int{5, E}), W, E},
		{"first wired port in E, W, N, S order", 4, 5, view(t, m, [2]int{4, E}), N, E},
		{"dead neighbour kills the link", 5, 6, view(t, m, [2]int{6, -1}, [2]int{5, W}), N, E},
		{"every escape dead: nominal", 5, 6, view(t, m, [2]int{5, E}, [2]int{5, W}, [2]int{5, N}, [2]int{5, S}), E, E},
		{"ejection port with its router down", 5, 5, view(t, m, [2]int{5, -1}), 4, 4},
	} {
		if nominal := e.Route(c.r, c.dst, 0); nominal != c.nominal {
			t.Fatalf("%s: fixture's nominal port is %d, want %d", c.name, nominal, c.nominal)
		}
		if got := e.RouteAvoid(c.r, c.dst, 0, c.st); got != c.want {
			t.Errorf("%s: RouteAvoid(%d, node %d) = %d, want %d", c.name, c.r, c.dst, got, c.want)
		}
	}
}

// view is a fault view of m with the links (router, port) down, and the
// routers (port -1).
func view(t *testing.T, m *topology.Mesh, down ...[2]int) *fault.State {
	t.Helper()
	var s fault.Schedule
	for _, d := range down {
		if d[1] < 0 {
			s.Events = append(s.Events, fault.Event{Cycle: 1, Kind: fault.RouterDown, Router: d[0]},
				fault.Event{Cycle: 2, Kind: fault.RouterUp, Router: d[0]})
			continue
		}
		s.Events = append(s.Events, fault.Event{Cycle: 1, Kind: fault.LinkDown, Router: d[0], Port: d[1]},
			fault.Event{Cycle: 2, Kind: fault.LinkUp, Router: d[0], Port: d[1]})
	}
	if err := s.Validate(m, 10); err != nil {
		t.Fatal(err)
	}
	st := fault.NewState(s, m)
	for _, ev := range st.Take(1) {
		st.Apply(ev)
	}
	return st
}
