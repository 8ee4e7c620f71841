package network

import (
	"reflect"

	"pseudocircuit/internal/core"
)

// Lanes exposes the shared structure-of-arrays lane store to tests (layout
// round-trip and consistency checks).
func (n *Network) Lanes() *core.LaneStore { return n.lanes }

// LanePacket names the packet that owns an input lane: what VA and the
// fault sweeps read through the router's pkt record.
type LanePacket struct {
	ID         uint64
	RouteClass int
}

// LanePackets returns, per global input lane of the store, the packet the
// owning router's pkt record names (the zero LanePacket where it names none).
// The record is unexported in package router, so it is read by reflection;
// an EVC router reaches it through its embedded *router.Router.
func (n *Network) LanePackets() []LanePacket {
	out := make([]LanePacket, len(n.lanes.BufLen))
	for r, node := range n.routers {
		pkt := reflect.ValueOf(node).Elem().FieldByName("pkt")
		base := n.lanes.InBase[r] * n.lanes.NumVCs
		for l := 0; l < pkt.Len(); l++ {
			if p := pkt.Index(l); !p.IsNil() {
				out[base+l] = LanePacket{p.Elem().FieldByName("ID").Uint(), int(p.Elem().FieldByName("RouteClass").Int())}
			}
		}
	}
	return out
}

// SkipPacketIDs advances the network's packet-ID counter by k, so every
// packet it numbers from now on carries a different ID than in an otherwise
// identical run (the failing case of the per-lane packet comparison).
func (n *Network) SkipPacketIDs(k uint64) { n.nextID += k }

// HopMisses returns how many hops send resolved rather than read from the
// hop memo.
func (n *Network) HopMisses() uint64 { return n.hopMisses }
