package network

import (
	"fmt"
	"reflect"
	"testing"

	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/topology"
)

// reachable is the predicate network.New used before the single-pass build:
// output port o at router r is a meaningful exit toward destination d when
// either dimension order routes through it.
func reachable(t topology.Topology, r, o, d int) bool {
	return t.Route(r, d, 0) == o || t.Route(r, d, 1) == o
}

// referenceWiring is the pre-single-pass derivation, kept as the oracle: two
// scans over every (router, outPort, dst) triple filtered by reachable (ring
// sizing, then upstream wiring, with the original conflict panic). Terminal
// upstreams are filled the way New does after the router-to-router pass.
func referenceWiring(t topology.Topology) (ups [][]upstream, ringLen int) {
	maxLat := 1
	for r := 0; r < t.Routers(); r++ {
		for o := 0; o < t.OutPorts(r); o++ {
			for d := 0; d < t.Nodes(); d++ {
				if !reachable(t, r, o, d) {
					continue
				}
				if h := t.NextHop(r, o, d); h.Latency > maxLat {
					maxLat = h.Latency
				}
			}
		}
	}
	ringLen = 1
	for ringLen < maxLat+3 {
		ringLen <<= 1
	}

	ups = make([][]upstream, t.Routers())
	for r := range ups {
		ups[r] = make([]upstream, t.InPorts(r))
		for i := range ups[r] {
			ups[r][i] = upstream{router: -2}
		}
	}
	for r := 0; r < t.Routers(); r++ {
		for o := 0; o < t.OutPorts(r); o++ {
			for d := 0; d < t.Nodes(); d++ {
				if !reachable(t, r, o, d) {
					continue
				}
				h := t.NextHop(r, o, d)
				if h.Router < 0 {
					continue
				}
				u := upstream{router: int32(r), out: int32(o)}
				cur := ups[h.Router][h.InPort]
				if cur.router != -2 && cur != u {
					panic(fmt.Sprintf("network: input port %d of router %d fed by two outputs", h.InPort, h.Router))
				}
				ups[h.Router][h.InPort] = u
			}
		}
	}
	for node := 0; node < t.Nodes(); node++ {
		r, inP, _ := t.NodeRouter(node)
		ups[r][inP] = upstream{router: -1, out: int32(node)}
	}
	return ups, ringLen
}

// TestWireMatchesReference is the build-equivalence oracle: the link walk
// must yield the same upstream table and ring length as the triple scans over
// (router, outPort, dst), on every topology family, square and not, and every
// routing algorithm.
func TestWireMatchesReference(t *testing.T) {
	topos := []struct {
		name string
		topo topology.Topology
	}{
		{"mesh2x2", topology.NewMesh(2, 2)},
		{"mesh3x5", topology.NewMesh(3, 5)},
		{"mesh8x8", topology.NewMesh(8, 8)},
		{"cmesh4x4x4", topology.NewCMesh(4, 4, 4)},
		{"mecs2x3x2", topology.NewMECS(2, 3, 2)},
		{"mecs4x4x4", topology.NewMECS(4, 4, 4)},
		{"fbfly2x3x2", topology.NewFBFly(2, 3, 2)},
		{"fbfly4x4x4", topology.NewFBFly(4, 4, 4)},
	}
	for _, tc := range topos {
		for _, algo := range []routing.Algorithm{routing.XY, routing.YX, routing.O1TURN} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, algo), func(t *testing.T) {
				cfg := DefaultConfig(tc.topo)
				cfg.Algorithm = algo
				n := New(cfg)
				ups, ringLen := referenceWiring(tc.topo)
				for r := range ups {
					got := n.ups[n.inBase[r]:n.inBase[r+1]]
					if !reflect.DeepEqual(got, ups[r]) {
						t.Errorf("router %d upstreams = %v, reference %v", r, got, ups[r])
					}
				}
				if len(n.ring) != ringLen {
					t.Errorf("ring length = %d, reference %d", len(n.ring), ringLen)
				}
			})
		}
	}
}

// sharedInputMesh miswires a mesh: router 3's north output lands on router
// 1's west input, which router 0's east output already feeds.
type sharedInputMesh struct{ *topology.Mesh }

func (m sharedInputMesh) NextHop(r, out, dst int) topology.Hop {
	if r == 3 && out == topology.PortN {
		return topology.Hop{Router: 1, InPort: topology.PortW, Latency: 1}
	}
	return m.Mesh.NextHop(r, out, dst)
}

func (m sharedInputMesh) Links(r int, visit func(out int, h topology.Hop)) {
	m.Mesh.Links(r, func(out int, h topology.Hop) { visit(out, m.NextHop(r, out, 0)) })
}

// panicOf returns what f panicked with, nil if it returned.
func panicOf(f func()) (msg any) {
	defer func() { msg = recover() }()
	f()
	return nil
}

// TestWireRejectsSharedInput checks the link walk kept the conflict check:
// an input port fed by two outputs panics with the reference's message.
func TestWireRejectsSharedInput(t *testing.T) {
	topo := sharedInputMesh{topology.NewMesh(2, 2)}
	want := panicOf(func() { referenceWiring(topo) })
	got := panicOf(func() { New(DefaultConfig(topo)) })
	if want != "network: input port 1 of router 1 fed by two outputs" {
		t.Fatalf("reference panic = %v", want)
	}
	if got != want {
		t.Errorf("New panic = %v, reference %v", got, want)
	}
}

// countingTopo counts what network.New asks of a topology: Route and NextHop
// calls, and hops visited through Links (the embedded topology's Links calls
// its own NextHop, not the wrapper's, so nextHops counts New's direct calls
// only).
type countingTopo struct {
	topology.Topology
	routes, nextHops, hops int
}

func (c *countingTopo) Route(r, dst, class int) int {
	c.routes++
	return c.Topology.Route(r, dst, class)
}

func (c *countingTopo) NextHop(r, out, dst int) topology.Hop {
	c.nextHops++
	return c.Topology.NextHop(r, out, dst)
}

func (c *countingTopo) Links(r int, visit func(out int, h topology.Hop)) {
	c.Topology.Links(r, func(out int, h topology.Hop) {
		c.hops++
		visit(out, h)
	})
}

// TestBuildCostFollowsLinks pins what network.New may ask of a topology, as
// counts that repeat exactly, on every family: one hop per link and not one
// Route or NextHop call. The links of a k×k grid of conc-node routers are one
// ejection per node plus, on a mesh, 4k(k-1) directed channels and, on a
// MECS or a flattened butterfly, 2(k-1) drop-offs or dedicated channels per
// router.
func TestBuildCostFollowsLinks(t *testing.T) {
	for _, tc := range []struct {
		topo  topology.Topology
		links int
	}{
		{topology.NewMesh(32, 32), 4*32*31 + 32*32},
		{topology.NewCMesh(4, 4, 4), 4*4*3 + 64},
		{topology.NewMECS(4, 4, 4), 16*6 + 64},
		{topology.NewFBFly(4, 4, 4), 16*6 + 64},
	} {
		c := &countingTopo{Topology: tc.topo}
		New(DefaultConfig(c))
		if c.routes != 0 || c.nextHops != 0 || c.hops != tc.links {
			t.Errorf("%s: New made %d Route and %d NextHop calls and visited %d hops; want 0, 0 and %d (the links)",
				tc.topo.Name(), c.routes, c.nextHops, c.hops, tc.links)
		}
	}
}

// TestIndexChecksCatchMissingWork: the invariant check behind the two work
// indexes fails when a bit is missing for an NI that holds a packet or a
// router that holds a flit — the skipped visit would otherwise just be a run
// that silently differs from the naive one. On a 9×9 mesh node and router 70
// are bit 6 of word 1, so the check is shown to read past the first word.
func TestIndexChecksCatchMissingWork(t *testing.T) {
	build := func() *Network {
		n := New(DefaultConfig(topology.NewMesh(9, 9)))
		n.CheckInvariants = true
		p := n.NewPacket()
		p.Src, p.Dst, p.Size = 70, 3, 1
		n.Inject(p)
		return n
	}
	n := build()
	n.inj[1] = 0
	if got, want := panicOf(func() { n.Step(nil) }), "network: NI 70 holds packets but is not in the injection index"; got != any(want) {
		t.Errorf("cleared injection index: panic %v, want %q", got, want)
	}

	n = build()
	n.Step(nil) // inject
	n.Step(nil) // router 70 latches the flit and keeps it for its pipeline
	if n.routers[70].Quiescent() {
		t.Fatal("router 70 is quiescent one cycle after its NI injected")
	}
	n.tick[1] = 0
	if got, want := panicOf(func() { n.Step(nil) }), "network: router 70 is not quiescent but is not in the tick index"; got != any(want) {
		t.Errorf("cleared tick index: panic %v, want %q", got, want)
	}
}
