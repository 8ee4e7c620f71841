package routing_test

import (
	"fmt"
	"testing"

	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/topology"
)

// routeFunc is a routing function as the two graphs below see it: the
// output port at router r toward dst for a packet of VC class class.
type routeFunc func(r, dst, class int) int

// nextHopCycle builds, per destination and class, the next-hop graph of rt
// on topo — nodes (router, arrival port), one edge from each node to where
// the port rt picks delivers — and describes the first cycle it finds, ""
// when every graph is acyclic: then a lone packet arrives from anywhere in
// fewer hops than the graph has nodes.
func nextHopCycle(topo topology.Topology, classes int, rt routeFunc) string {
	ports := 0
	for r := 0; r < topo.Routers(); r++ {
		ports = max(ports, topo.InPorts(r))
	}
	const (
		unseen = iota
		onPath
		done
	)
	for class := 0; class < classes; class++ {
		for dst := 0; dst < topo.Nodes(); dst++ {
			mark := make([]uint8, topo.Routers()*ports)
			for start := range mark {
				if start%ports >= topo.InPorts(start/ports) {
					continue
				}
				var path []int
				for n := start; n >= 0 && mark[n] != done; {
					if mark[n] == onPath {
						return fmt.Sprintf("class %d, destination %d: router %d port %d is on a cycle", class, dst, n/ports, n%ports)
					}
					mark[n] = onPath
					path = append(path, n)
					r := n / ports
					h := topo.NextHop(r, rt(r, dst, class), dst)
					n = -1
					if h.Router >= 0 {
						n = h.Router*ports + h.InPort
					}
				}
				for _, n := range path {
					mark[n] = done
				}
			}
		}
	}
	return ""
}

// channel is a node of the channel-dependency graph.
type channel struct{ router, out, class int }

// dependencyCycle builds the channel-dependency graph of rt on topo (Dally
// and Seitz): nodes (router, output port, VC class) for the channels between
// routers, and an edge wherever a packet holding one can request the next,
// over every router and destination since every router injects. It
// describes a cycle if there is one, "" when the graph is acyclic: then rt
// cannot deadlock. A packet keeps its class, so classes never meet.
func dependencyCycle(topo topology.Topology, classes int, rt routeFunc) string {
	next := map[channel]map[channel]bool{}
	for class := 0; class < classes; class++ {
		for r := 0; r < topo.Routers(); r++ {
			for dst := 0; dst < topo.Nodes(); dst++ {
				out := rt(r, dst, class)
				h := topo.NextHop(r, out, dst)
				if h.Router < 0 {
					continue
				}
				out2 := rt(h.Router, dst, class)
				if topo.NextHop(h.Router, out2, dst).Router < 0 {
					continue
				}
				held := channel{r, out, class}
				if next[held] == nil {
					next[held] = map[channel]bool{}
				}
				next[held][channel{h.Router, out2, class}] = true
			}
		}
	}
	state := map[channel]uint8{} // 1 on the DFS stack, 2 finished
	var visit func(c channel) string
	visit = func(c channel) string {
		switch state[c] {
		case 1:
			return fmt.Sprintf("channel router %d port %d class %d is on a cycle", c.router, c.out, c.class)
		case 2:
			return ""
		}
		state[c] = 1
		for d := range next[c] {
			if cycle := visit(d); cycle != "" {
				return cycle
			}
		}
		state[c] = 2
		return ""
	}
	for c := range next {
		if cycle := visit(c); cycle != "" {
			return cycle
		}
	}
	return ""
}

// TestRoutingGraphsAcyclic: without faults, the next-hop graph and the
// channel-dependency graph are acyclic for XY, YX and O1TURN (each class on
// its own VCs) on meshes, and for the dimension order of CMesh, MECS and
// FBFLY: no lone packet wanders, and no routing deadlock. The negative
// fixtures show each checker finds a cycle where there is one.
func TestRoutingGraphsAcyclic(t *testing.T) {
	topos := []topology.Topology{
		topology.NewMesh(8, 8),
		topology.NewMesh(5, 3),
		topology.NewCMesh(4, 4, 4),
		topology.NewMECS(4, 4, 4),
		topology.NewMECS(5, 3, 2),
		topology.NewFBFly(4, 4, 4),
		topology.NewFBFly(3, 5, 2),
	}
	for _, topo := range topos {
		kx, ky := topo.Dims()
		for _, algo := range []routing.Algorithm{routing.XY, routing.YX, routing.O1TURN} {
			e := routing.New(algo, topo)
			name := fmt.Sprintf("%s%dx%dx%d/%s", topo.Name(), kx, ky, topo.Concentration(), algo)
			if cycle := nextHopCycle(topo, e.NumClasses(), e.Route); cycle != "" {
				t.Errorf("%s next-hop graph: %s", name, cycle)
			}
			if cycle := dependencyCycle(topo, e.NumClasses(), e.Route); cycle != "" {
				t.Errorf("%s channel-dependency graph: %s", name, cycle)
			}
		}
	}

	// Negative fixtures on a 4x4 mesh. Both orders in one VC class turns
	// both ways — O1TURN without its classes — and is minimal, so only the
	// dependency graph has a cycle. Sending every packet in column 1 west
	// turns back, so a packet bound east of it never arrives.
	m := topology.NewMesh(4, 4)
	bothWays := func(r, dst, _ int) int { return m.Route(r, dst, (dst%4+dst/4)%2) }
	turnsBack := func(r, dst, _ int) int {
		if r%4 == 1 && dst%4 > 1 {
			return topology.PortW
		}
		return m.Route(r, dst, 0)
	}
	if cycle := nextHopCycle(m, 1, bothWays); cycle != "" {
		t.Errorf("a minimal routing's next-hop graph: %s", cycle)
	}
	if dependencyCycle(m, 1, bothWays) == "" {
		t.Error("a routing that turns both ways in one class shows no channel-dependency cycle")
	}
	if nextHopCycle(m, 1, turnsBack) == "" {
		t.Error("a routing that turns back shows no next-hop cycle")
	}
	if dependencyCycle(m, 1, turnsBack) == "" {
		t.Error("a routing that turns back shows no channel-dependency cycle")
	}
}
