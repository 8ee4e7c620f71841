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
var carvedNames = []string{"buf", "arrival", "pkt", "bufLen", "credits", "rrVC", "lastOut", "chosen", "pcCand",
	"rrIn", "outPort", "outVC", "missL", "cause", "occ", "act", "va", "vcBusy",
	"pc.InVC", "pc.Out", "pc.Spec", "pc.HistIn", "pc.ByOut", "res", "nextRes", "reqs"}

// carved marks every slice router r carves from its slab with a value k,
// k+1, ... that no other slice of any router shares.
func carved(r *Router, k int) []marker {
	i16 := func(j int) int16 { return int16(k + j) }
	i8 := func(j int) int8 { return int8(k + j) }
	return []marker{
		mark(r.buf, &flit.Flit{Seq: k}), mark(r.arrival, &flit.Flit{Seq: k + 1}),
		mark(r.pkt, &flit.Packet{ID: uint64(k + 2)}),
		mark(r.bufLen, i16(3)), mark(r.credits, i16(4)), mark(r.rrVC, i16(5)), mark(r.lastOut, i16(6)),
		mark(r.chosen, i16(7)), mark(r.pcCand, i16(8)), mark(r.rrIn, i16(9)),
		mark(r.outPort, i8(10)), mark(r.outVC, i8(11)), mark(r.missL, i8(12)), mark(r.cause, i8(13)),
		mark(r.occ, uint64(k+14)), mark(r.act, uint64(k+15)), mark(r.va, uint64(k+16)),
		mark(r.vcBusy, false),
		mark(r.pc.InVC, i8(18)), mark(r.pc.Out, i8(19)), mark(r.pc.Spec, true),
		mark(r.pc.HistIn, i8(21)), mark(r.pc.ByOut, i8(22)),
		mark(r.res, reservation{in: i8(23)}), mark(r.nextRes, reservation{in: i8(24)}),
		mark(r.reqs, saRequest{in: i8(25)}),
	}
}

// TestSlabRegionsEndAtTheirRouter builds routers of assorted, asymmetric radix
// from one slab, as network.New does, and checks that every carved slice's
// capacity ends at its own region: each router fills every slice to capacity
// with its own mark, and afterwards every slice must still read only its mark.
// An append past a region, or a reslice to capacity, could otherwise write
// into a neighbour's state. A bool has two marks only: vcBusy's is false and
// Spec's true, and New carves the two alternately, so a bool region's
// neighbours hold the other mark.
// The routers must then have used up every kind of the slab exactly: it is
// sized from the radices as New carves from them.
func TestSlabRegionsEndAtTheirRouter(t *testing.T) {
	const V, D = 3, 4
	ins, outs := []int{5, 8, 2, 5, 3}, []int{5, 6, 4, 2, 7}
	sl := NewSlab(V, D, ins, outs)
	cfg := &Config{
		NumVCs:   V,
		BufDepth: D,
		Opts:     core.DefaultOptions(core.PseudoSB),
		Alloc:    vcalloc.New(vcalloc.Dynamic, V, 1, 64),
		Slab:     sl,
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
	for kind, left := range map[string]int{
		"routers": len(sl.routers), "regs": len(sl.regs), "flits": len(sl.flits), "pkt": len(sl.pkt),
		"i16": len(sl.i16), "i8": len(sl.i8), "words": len(sl.words), "bools": len(sl.bools),
		"resv": len(sl.resv), "reqs": len(sl.reqs),
	} {
		if left != 0 {
			t.Errorf("slab kind %s: %d elements left after building every router", kind, left)
		}
	}
}
