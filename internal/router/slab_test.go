package router

import (
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/flit"
	"pseudocircuit/internal/stats"
	"pseudocircuit/internal/vcalloc"
)

// marker fills a slice to its capacity with one value, or reports whether it
// still holds only that value there.
type marker func(fill bool) bool

func mark[T comparable](s []T, v T) marker {
	s = s[:cap(s)]
	return func(fill bool) bool {
		for i := range s {
			if fill {
				s[i] = v
			} else if s[i] != v {
				return false
			}
		}
		return true
	}
}

// carvedNames names the slices carved returns, in its order.
var carvedNames = []string{"buf", "arrival", "pkt", "va", "rrVC", "lastOut", "chosen", "pcCand", "rrIn",
	"cause", "missL", "res", "nextRes", "reqs"}

// carved marks every slice router r carves from its slab with a value k,
// k+1, ... that no other slice of any router shares.
func carved(r *Router, k int) []marker {
	return []marker{
		mark(r.buf, &flit.Flit{Seq: k}), mark(r.arrival, &flit.Flit{Seq: k + 1}),
		mark(r.pkt, &flit.Packet{ID: uint64(k + 2)}), mark(r.va, uint64(k+3)),
		mark(r.rrVC, int16(k+4)), mark(r.lastOut, int16(k+5)), mark(r.chosen, int16(k+6)),
		mark(r.pcCand, int16(k+7)), mark(r.rrIn, int16(k+8)),
		mark(r.cause, int8(k+9)), mark(r.missL, int8(k+10)),
		mark(r.res, reservation{in: int8(k + 11)}), mark(r.nextRes, reservation{in: int8(k + 12)}),
		mark(r.reqs, saRequest{in: int8(k + 13)}),
	}
}

// TestSlabRegionsEndAtTheirRouter builds routers of assorted radix from one
// slab, as network.New does, and checks that every carved slice's capacity
// ends at its own region: each router fills every slice to capacity with its
// own mark, and afterwards every slice must still read only its mark. An
// append past a region, or a reslice to capacity, could otherwise write into a
// neighbour's state.
func TestSlabRegionsEndAtTheirRouter(t *testing.T) {
	const V, D = 3, 4
	ins, outs := []int{5, 8, 2, 5, 3}, []int{5, 6, 4, 2, 7}
	cfg := &Config{
		NumVCs:   V,
		BufDepth: D,
		Opts:     core.DefaultOptions(core.PseudoSB),
		Alloc:    vcalloc.New(vcalloc.Dynamic, V, 1, 64),
		Lanes:    core.NewLaneStore(V, D, ins, outs),
		Slab:     NewSlab(V, D, ins, outs),
		Reg:      stats.NewRegistry(ins, outs),
		Send:     func(id, out int, f *flit.Flit) {},
		Credit:   func(id, in, vc int) {},
	}
	var marks [][]marker
	for id := range ins {
		marks = append(marks, carved(New(id, ins[id], outs[id], cfg), len(carvedNames)*id))
	}
	for _, m := range marks {
		for _, fill := range m {
			fill(true)
		}
	}
	for id, m := range marks {
		for k, holds := range m {
			if !holds(false) {
				t.Errorf("router %d: %s overlaps another slice within its capacity", id, carvedNames[k])
			}
		}
	}
}
