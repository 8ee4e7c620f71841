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
// on topo — one edge from each router to the router the port rt picks
// delivers to — and describes the first cycle it finds, "" when every graph
// is acyclic: then a lone packet arrives from anywhere in fewer hops than
// there are routers. Toward one destination in one class the port rt picks
// depends on the router alone, so a graph over (router, arrival port) nodes
// has a cycle exactly when this one does.
func nextHopCycle(topo topology.Topology, classes int, rt routeFunc) string {
	for dst := 0; dst < topo.Nodes(); dst++ {
		if cycle := nextHopCycleTo(topo, classes, dst, rt); cycle != "" {
			return cycle
		}
	}
	return ""
}

// nextHopCycleTo is nextHopCycle for the graphs toward one destination.
func nextHopCycleTo(topo topology.Topology, classes, dst int, rt routeFunc) string {
	const (
		unseen = iota
		onPath
		done
	)
	mark := make([]uint8, topo.Routers())
	var path []int
	for class := 0; class < classes; class++ {
		clear(mark)
		for start := range mark {
			path = path[:0]
			for r := start; r >= 0 && mark[r] != done; r = topo.NextHop(r, rt(r, dst, class), dst).Router {
				if mark[r] == onPath {
					return fmt.Sprintf("class %d, destination %d: router %d is on a cycle", class, dst, r)
				}
				mark[r] = onPath
				path = append(path, r)
			}
			for _, r := range path {
				mark[r] = done
			}
		}
	}
	return ""
}

// dependencyCycle builds the channel-dependency graph of rt on topo (Dally
// and Seitz): nodes (router, output port, VC class) for the channels between
// routers, and an edge wherever a packet holding one can request the next,
// over every router and destination since every router injects. It
// describes a cycle if there is one, "" when the graph is acyclic: then rt
// cannot deadlock. A packet keeps its class, so classes never meet. Channel
// (r, out, class) is index (class·routers + r)·outs + out of the slices.
func dependencyCycle(topo topology.Topology, classes int, rt routeFunc) string {
	outs := 0
	for r := 0; r < topo.Routers(); r++ {
		outs = max(outs, topo.OutPorts(r))
	}
	id := func(r, out, class int) int { return (class*topo.Routers()+r)*outs + out }
	next := make([][]int, classes*topo.Routers()*outs)
	// Per class, the port rt picks and the router it delivers to (-1: the
	// packet ejects), by router and destination.
	port, to := make([]int, topo.Routers()*topo.Nodes()), make([]int, topo.Routers()*topo.Nodes())
	for class := 0; class < classes; class++ {
		for r := 0; r < topo.Routers(); r++ {
			for dst := 0; dst < topo.Nodes(); dst++ {
				i := r*topo.Nodes() + dst
				port[i] = rt(r, dst, class)
				to[i] = topo.NextHop(r, port[i], dst).Router
			}
		}
		for r := 0; r < topo.Routers(); r++ {
			for dst := 0; dst < topo.Nodes(); dst++ {
				i := r*topo.Nodes() + dst
				if to[i] < 0 || to[to[i]*topo.Nodes()+dst] < 0 {
					continue
				}
				held, want := id(r, port[i], class), id(to[i], port[to[i]*topo.Nodes()+dst], class)
				if l := next[held]; len(l) == 0 || l[len(l)-1] != want { // one edge per run of destinations
					next[held] = append(l, want)
				}
			}
		}
	}
	state := make([]uint8, len(next)) // 1 on the DFS stack, 2 finished
	var visit func(c int) string
	visit = func(c int) string {
		switch state[c] {
		case 1:
			return fmt.Sprintf("channel router %d port %d class %d is on a cycle",
				c/outs%topo.Routers(), c%outs, c/outs/topo.Routers())
		case 2:
			return ""
		}
		state[c] = 1
		for _, d := range next[c] {
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

// TestOneDeadLinkCycles counts what one dead link does to RouteAvoid's
// graphs on Mesh(8,8), for each of its 224 directed links in turn: the
// (link, destination) pairs whose next-hop graph, in any class, has a cycle
// — a lone packet that never arrives — and the links whose
// channel-dependency graph has one — a routing that can deadlock. The
// counts are pinned so a change to RouteAvoid's detours shows in them; a
// routing that never ping-pongs drives the next-hop count to zero. Among the
// pairs is the ping-pong of DESIGN.md §13: with router 5's east link dead,
// a packet for node 6 is sent west to router 4, whose route sends it back
// east.
func TestOneDeadLinkCycles(t *testing.T) {
	m := topology.NewMesh(8, 8)
	for _, c := range []struct {
		algo                   routing.Algorithm
		links, pairs, depLinks int
	}{
		{routing.XY, 208, 784, 208},
		{routing.O1TURN, 224, 896, 224},
	} {
		e := routing.New(c.algo, m)
		dead, links, pairs, depLinks, pingPong := 0, 0, 0, 0, false
		for r := 0; r < m.Routers(); r++ {
			m.Links(r, func(out int, _ topology.Hop) {
				if out >= 4 {
					return // a terminal port, not a link
				}
				dead++
				st := view(t, m, [2]int{r, out})
				rt := func(r, dst, class int) int { return e.RouteAvoid(r, dst, class, st) }
				n := 0
				for dst := 0; dst < m.Nodes(); dst++ {
					if nextHopCycleTo(m, e.NumClasses(), dst, rt) != "" {
						n++
						pingPong = pingPong || r == 5 && out == topology.PortE && dst == 6
					}
				}
				pairs += n
				if n > 0 {
					links++
				}
				if dependencyCycle(m, e.NumClasses(), rt) != "" {
					depLinks++
				}
			})
		}
		if dead != 224 || links != c.links || pairs != c.pairs || depLinks != c.depLinks {
			t.Errorf("%v over %d dead links: %d links / %d pairs with a next-hop cycle, %d links with a dependency cycle; want 224, %d / %d, %d",
				c.algo, dead, links, pairs, depLinks, c.links, c.pairs, c.depLinks)
		}
		if !pingPong {
			t.Errorf("%v: router 5's dead east link shows no next-hop cycle toward node 6", c.algo)
		}
	}
}
