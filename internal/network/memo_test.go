package network

import (
	"testing"

	"pseudocircuit/internal/flit"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/topology"
)

// TestHopMemoKeysTheRouteClass: one output lane that carries packets of both
// O1TURN classes to one destination in turn gives each its own class's
// lookahead. A run never puts two classes on a lane, because the VC allocator
// gives each class its own VCs; the class in the key keeps the memo exact
// without leaning on that.
func TestHopMemoKeysTheRouteClass(t *testing.T) {
	cfg := DefaultConfig(topology.NewMesh(4, 4))
	cfg.Algorithm = routing.O1TURN
	n := New(cfg)
	// Router 0 sends east to router 1; toward node 6 at (2, 1), X first goes
	// on east there and Y first turns south.
	for _, class := range []int{0, 1, 0} {
		f := &flit.Flit{Packet: &flit.Packet{Dst: 6, RouteClass: class}}
		n.send(0, topology.PortE, f)
		if want := n.engine.Route(1, 6, class); f.NextOut != want {
			t.Fatalf("class %d: lookahead %d at router 1, want %d", class, f.NextOut, want)
		}
	}
}
