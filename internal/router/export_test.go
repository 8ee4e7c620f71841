package router

import "math/bits"

// Records are a router's lane and credit records, the slices themselves: a
// write through them reaches the router (the desync tests corrupt them).
type Records struct {
	BufLen, Credits []int16
	OutVC           []int8
	Occ, Act        []uint64
	VCBusy          []bool
}

// Records returns r's lane and credit records.
func (r *Router) Records() Records {
	return Records{BufLen: r.bufLen, Credits: r.credits, OutVC: r.outVC, Occ: r.occ, Act: r.act, VCBusy: r.vcBusy}
}

// ValidCircuits is the number of r's live pseudo-circuits.
func (r *Router) ValidCircuits() int { return bits.OnesCount64(r.pc.ValidMask) }

// PCValid reports whether input port in currently holds a valid
// pseudo-circuit, and to which output.
func (r *Router) PCValid(in int) (out int, valid bool) {
	return int(r.pc.Out[in]), r.pc.Valid(in)
}

// BufferedFlits returns the number of flits buffered across all VCs of input
// port in.
func (r *Router) BufferedFlits(in int) int {
	n := 0
	for vc := 0; vc < r.V; vc++ {
		n += r.depth(in*r.V + vc)
	}
	return n
}
