package network

import (
	"reflect"

	"pseudocircuit/internal/router"
)

// LanePacket names the packet that owns an input lane: what VA and the
// fault sweeps read through the router's pkt record.
type LanePacket struct {
	ID         uint64
	RouteClass int
}

// routerValue returns node's router.Router: the node itself, or the one a
// policy router (EVC) embeds.
func routerValue(node Node) reflect.Value {
	v := reflect.ValueOf(node).Elem()
	if v.Type() != reflect.TypeFor[router.Router]() {
		v = v.FieldByName("Router").Elem()
	}
	return v
}

// LanePackets returns, per network-wide input lane, the packet the owning
// router's pkt record names (the zero LanePacket where it names none). The
// record is unexported in package router, so it is read by reflection.
func (n *Network) LanePackets() []LanePacket {
	out := make([]LanePacket, n.inBase[len(n.routers)]*n.cfg.NumVCs)
	for r, node := range n.routers {
		pkt := routerValue(node).FieldByName("pkt")
		base := n.inBase[r] * n.cfg.NumVCs
		for l := 0; l < pkt.Len(); l++ {
			if p := pkt.Index(l); !p.IsNil() {
				out[base+l] = LanePacket{p.Elem().FieldByName("ID").Uint(), int(p.Elem().FieldByName("RouteClass").Int())}
			}
		}
	}
	return out
}

// RouterState returns, by field name, every narrow slice router r keeps — its
// lane, port and credit records, per-port pointers and census, each an
// int8, int16, uint64 or bool slice — and every field of its register file:
// the registers' storage and the mask words ("pc.ValidMask"). Each value is
// widened to int64s. The fields are unexported in package router, so they are
// read by reflection, as LanePackets reads pkt.
func (n *Network) RouterState(r int) map[string][]int64 {
	word := func(x reflect.Value) (int64, bool) {
		switch x.Kind() {
		case reflect.Int8, reflect.Int16:
			return x.Int(), true
		case reflect.Uint64:
			return int64(x.Uint()), true
		case reflect.Bool:
			if x.Bool() {
				return 1, true
			}
			return 0, true
		}
		return 0, false
	}
	out := map[string][]int64{}
	add := func(prefix string, s reflect.Value, words bool) {
		for i := 0; i < s.NumField(); i++ {
			f := s.Field(i)
			if f.Kind() == reflect.Slice {
				if _, ok := word(reflect.Zero(f.Type().Elem())); !ok {
					continue
				}
				w := make([]int64, f.Len())
				for j := range w {
					w[j], _ = word(f.Index(j))
				}
				out[prefix+s.Type().Field(i).Name] = w
			} else if x, ok := word(f); ok && words {
				out[prefix+s.Type().Field(i).Name] = []int64{x}
			}
		}
	}
	v := routerValue(n.routers[r])
	add("", v, false)
	add("pc.", v.FieldByName("pc").Elem(), true)
	return out
}

// SkipPacketIDs advances the network's packet-ID counter by k, so every
// packet it numbers from now on carries a different ID than in an otherwise
// identical run (the failing case of the per-lane packet comparison).
func (n *Network) SkipPacketIDs(k uint64) { n.nextID += k }

// HopMisses returns how many hops send resolved rather than read from the
// hop memo.
func (n *Network) HopMisses() uint64 { return n.hopMisses }
