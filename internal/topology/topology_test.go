package topology_test

import (
	"testing"
	"testing/quick"

	"pseudocircuit/internal/topology"
)

func all() []topology.Topology {
	return []topology.Topology{
		topology.NewMesh(8, 8),
		topology.NewMesh(4, 4),
		topology.NewCMesh(4, 4, 4),
		topology.NewCMesh(3, 5, 2),
		topology.NewMECS(4, 4, 4),
		topology.NewMECS(3, 3, 2),
		topology.NewFBFly(4, 4, 4),
		topology.NewFBFly(3, 3, 2),
	}
}

// TestNodeRouterMapping: every terminal attaches to a valid router with
// in-range ports, and no two terminals share an attachment port.
func TestNodeRouterMapping(t *testing.T) {
	for _, topo := range all() {
		type port struct{ r, p int }
		seenIn := map[port]bool{}
		seenOut := map[port]bool{}
		for n := 0; n < topo.Nodes(); n++ {
			r, in, out := topo.NodeRouter(n)
			if r < 0 || r >= topo.Routers() {
				t.Fatalf("%s: node %d router %d out of range", topo.Name(), n, r)
			}
			if in < 0 || in >= topo.InPorts(r) {
				t.Fatalf("%s: node %d inPort %d out of range", topo.Name(), n, in)
			}
			if out < 0 || out >= topo.OutPorts(r) {
				t.Fatalf("%s: node %d outPort %d out of range", topo.Name(), n, out)
			}
			if seenIn[port{r, in}] || seenOut[port{r, out}] {
				t.Fatalf("%s: node %d shares an attachment port", topo.Name(), n)
			}
			seenIn[port{r, in}] = true
			seenOut[port{r, out}] = true
		}
	}
}

// TestDORReachesDestination: dimension-order routing from every router to
// every node terminates at the right terminal within diameter hops, for
// both dimension orders, and NextHop agrees with Route.
func TestDORReachesDestination(t *testing.T) {
	for _, topo := range all() {
		for class := 0; class < 2; class++ {
			for r := 0; r < topo.Routers(); r++ {
				for d := 0; d < topo.Nodes(); d++ {
					cur := r
					hops := 0
					for {
						out := topo.Route(cur, d, class)
						if out < 0 || out >= topo.OutPorts(cur) {
							t.Fatalf("%s: Route(%d,%d,%d) = %d out of range", topo.Name(), cur, d, class, out)
						}
						h := topo.NextHop(cur, out, d)
						if h.Latency < 1 {
							t.Fatalf("%s: latency %d < 1", topo.Name(), h.Latency)
						}
						if h.Router < 0 {
							if h.InPort != d {
								t.Fatalf("%s: route %d->%d class %d ejected at %d", topo.Name(), r, d, class, h.InPort)
							}
							break
						}
						if h.InPort < 0 || h.InPort >= topo.InPorts(h.Router) {
							t.Fatalf("%s: hop into invalid port %d of router %d", topo.Name(), h.InPort, h.Router)
						}
						cur = h.Router
						hops++
						if hops > topo.Routers()+1 {
							t.Fatalf("%s: route %d->%d class %d loops", topo.Name(), r, d, class)
						}
					}
				}
			}
		}
	}
}

// TestExpressTopologiesHopBound: MECS and FBFLY route in at most one hop
// per dimension (plus ejection).
func TestExpressTopologiesHopBound(t *testing.T) {
	for _, topo := range []topology.Topology{
		topology.NewMECS(4, 4, 4), topology.NewFBFly(4, 4, 4),
	} {
		for r := 0; r < topo.Routers(); r++ {
			for d := 0; d < topo.Nodes(); d++ {
				cur, hops := r, 0
				for {
					h := topo.NextHop(cur, topo.Route(cur, d, 0), d)
					if h.Router < 0 {
						break
					}
					cur = h.Router
					hops++
				}
				if hops > 2 {
					t.Fatalf("%s: %d hops from router %d to node %d, want <= 2", topo.Name(), hops, r, d)
				}
			}
		}
	}
}

// TestUniqueUpstream: every reachable input port is fed by exactly one
// (router, output) pair — the invariant the network's credit wiring needs.
func TestUniqueUpstream(t *testing.T) {
	for _, topo := range all() {
		type src struct{ r, o int }
		feeders := map[[2]int]src{}
		for r := 0; r < topo.Routers(); r++ {
			for d := 0; d < topo.Nodes(); d++ {
				for class := 0; class < 2; class++ {
					o := topo.Route(r, d, class)
					h := topo.NextHop(r, o, d)
					if h.Router < 0 {
						continue
					}
					key := [2]int{h.Router, h.InPort}
					s := src{r, o}
					if prev, ok := feeders[key]; ok && prev != s {
						t.Fatalf("%s: input (%d,%d) fed by both %v and %v", topo.Name(), h.Router, h.InPort, prev, s)
					}
					feeders[key] = s
				}
			}
		}
	}
}

// TestLinksAreTheRoutedHops: the hops a topology reports about itself are
// exactly the hops routing can make — {NextHop(r, Route(r, d, c), d)} over
// every router, destination and dimension order — on square and non-square
// grids, each router's in ascending output-port order. A link Links missed
// would be left unwired by the network; one it invented would be wired to
// nothing routing uses.
func TestLinksAreTheRoutedHops(t *testing.T) {
	type link struct {
		r, out int
		h      topology.Hop
	}
	for name, topo := range map[string]topology.Topology{
		"mesh3x5":    topology.NewMesh(3, 5),
		"cmesh4x4x4": topology.NewCMesh(4, 4, 4),
		"mecs2x3x2":  topology.NewMECS(2, 3, 2),
		"mecs4x4x4":  topology.NewMECS(4, 4, 4),
		"fbfly2x3x2": topology.NewFBFly(2, 3, 2),
		"fbfly4x4x4": topology.NewFBFly(4, 4, 4),
	} {
		routed := map[link]bool{}
		for r := 0; r < topo.Routers(); r++ {
			for d := 0; d < topo.Nodes(); d++ {
				for class := 0; class < 2; class++ {
					o := topo.Route(r, d, class)
					routed[link{r, o, topo.NextHop(r, o, d)}] = true
				}
			}
		}
		walked := map[link]bool{}
		for r := 0; r < topo.Routers(); r++ {
			last := 0
			topo.Links(r, func(out int, h topology.Hop) {
				l := link{r, out, h}
				if walked[l] {
					t.Errorf("%s: Links reports %+v twice", name, l)
				}
				if out < last {
					t.Errorf("%s: router %d reports port %d after port %d", name, r, out, last)
				}
				walked[l], last = true, out
				if !routed[l] {
					t.Errorf("%s: Links reports %+v, which no route takes", name, l)
				}
			})
		}
		if len(walked) != len(routed) {
			t.Errorf("%s: Links reports %d hops, routing makes %d", name, len(walked), len(routed))
		}
	}
}

func TestMeshCoordRoundTrip(t *testing.T) {
	m := topology.NewMesh(5, 7)
	err := quick.Check(func(r uint8) bool {
		id := int(r) % m.Routers()
		x, y := m.Coord(id)
		kx, _ := m.Dims()
		return y*kx+x == id
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestAvgDistancePositive(t *testing.T) {
	for _, topo := range all() {
		if d := topo.AvgDistance(); d <= 0 {
			t.Errorf("%s: AvgDistance = %v", topo.Name(), d)
		}
	}
	// The 8x8 mesh's mean Manhattan distance between distinct nodes is
	// known: 2*(k-1/k)/3 per dimension with exclusion correction; just
	// bound it loosely.
	m := topology.NewMesh(8, 8)
	if d := m.AvgDistance(); d < 4.5 || d > 6.0 {
		t.Errorf("mesh8x8 AvgDistance = %v, want ~5.3", d)
	}
}

func TestInvalidConstruction(t *testing.T) {
	for name, fn := range map[string]func(){
		"mesh1x4":    func() { topology.NewMesh(1, 4) },
		"cmesh0conc": func() { topology.NewCMesh(4, 4, 0) },
		"mecs1x1":    func() { topology.NewMECS(1, 1, 1) },
		"fbfly1x2":   func() { topology.NewFBFly(1, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: invalid construction accepted", name)
				}
			}()
			fn()
		}()
	}
}

func TestMECSPortCounts(t *testing.T) {
	m := topology.NewMECS(4, 4, 4)
	// Outputs: 4 directions + 4 terminals; inputs: 3 row drops + 3 column
	// drops + 4 terminals.
	if got := m.OutPorts(0); got != 8 {
		t.Errorf("MECS OutPorts = %d, want 8", got)
	}
	if got := m.InPorts(0); got != 10 {
		t.Errorf("MECS InPorts = %d, want 10", got)
	}
}

func TestFBFlyPortCounts(t *testing.T) {
	f := topology.NewFBFly(4, 4, 4)
	// 3 row + 3 column + 4 terminals, symmetric.
	if got := f.OutPorts(0); got != 10 {
		t.Errorf("FBFLY OutPorts = %d, want 10", got)
	}
	if got := f.InPorts(0); got != 10 {
		t.Errorf("FBFLY InPorts = %d, want 10", got)
	}
}

// TestMECSExpressLatency: multidrop channels cost latency proportional to
// the distance covered (wire-length model).
func TestMECSExpressLatency(t *testing.T) {
	m := topology.NewMECS(4, 4, 4)
	// Router 0 (0,0) to a node homed at router 3 (3,0): one row hop of
	// distance 3, span 2 -> latency 6.
	dst := 3 * 4 // first terminal of router 3
	h := m.NextHop(0, m.Route(0, dst, 0), dst)
	if h.Router != 3 || h.Latency != 6 {
		t.Errorf("MECS hop = %+v, want router 3 latency 6", h)
	}
}
