// Package evc implements Express Virtual Channels (Kumar, Peh, Kundu & Jha,
// ISCA 2007), the comparison baseline of paper §7.B. The paper's
// configuration: dynamic EVCs with l_max = 2, 4 VCs per input port of which
// 2 are reserved as express VCs (EVCs) and 2 remain normal VCs (NVCs),
// 4-flit buffers.
//
// A packet with at least two remaining hops in its current dimension may
// allocate an EVC: its flits then bypass the entire pipeline of the
// intermediate router (a one-cycle latched pass-through with absolute
// priority over locally arbitrated traffic) and are buffered at the express
// sink two hops away. The EVC source performs flow control against the
// sink's buffer, so express flits never stall mid-path.
//
// The router is internal/router's baseline speculative pipeline
// (BW | VA+SA | ST) with this package installed on it as a router.Policy;
// only what is express lives here: the phase-0 latch, the VA pick, the
// express stamp on traversing flits, the upstream credit relay and the
// express fault-teardown rule (DESIGN.md §4, §17).
//
// Documented deviations from the original proposal:
//
//   - Express paths are striped across the two EVCs by source-coordinate
//     parity, so each (link, VC) pair carries a single source's express
//     flits and credits can be relayed upstream deterministically instead of
//     using the original paper's token scheme.
//   - Pipeline grants preempted by an express pass-through are re-arbitrated
//     (EVC's flit prioritization).
package evc

import (
	"fmt"
	"math/bits"

	"pseudocircuit/internal/flit"
	"pseudocircuit/internal/router"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
)

// oppositeIn maps a direction output port to the input port a flit sent on
// it arrives at downstream.
var oppositeIn = [4]int{
	topology.PortE: topology.PortW,
	topology.PortW: topology.PortE,
	topology.PortN: topology.PortS,
	topology.PortS: topology.PortN,
}

// Router is a baseline router carrying the express policy. It implements
// network.Node through the embedded pipeline, whose Preemptions field counts
// the grants displaced by express flits.
type Router struct {
	*router.Router
	cfg  *router.Config
	mesh *topology.Mesh
	base int // first EVC index (NumVCs - numEVCs)
	x, y int // this router's mesh coordinates

	// ExpressForwards counts one-cycle intermediate bypasses.
	ExpressForwards uint64
}

// New builds an EVC router on mesh with numEVCs express VCs (paper: 2).
func New(id, inPorts, outPorts int, cfg *router.Config, mesh *topology.Mesh, numEVCs int) *Router {
	if numEVCs < 2 || numEVCs%2 != 0 || numEVCs >= cfg.NumVCs {
		panic("evc: need an even number of EVCs in [2, NumVCs)")
	}
	r := &Router{
		Router: router.New(id, inPorts, outPorts, cfg),
		cfg:    cfg,
		mesh:   mesh,
		base:   cfg.NumVCs - numEVCs,
	}
	r.x, r.y = mesh.Coord(id)
	r.SetPolicy(r)
	return r
}

// DeliverCredit implements network.Node. EVC credits are relayed upstream
// when the coordinate parity shows the express path originates there; a
// relayed credit is on its way before this returns and leaves nothing for a
// tick to do. (Direction ports are never ejection ports on a mesh.)
func (r *Router) DeliverCredit(out, vc int) bool {
	if vc >= r.base && out < 4 && r.parityFor(out) != vc-r.base {
		r.cfg.Credit(r.ID, oppositeIn[out], vc)
		return false
	}
	return r.Router.DeliverCredit(out, vc)
}

// parityFor returns this router's coordinate parity in the dimension of a
// direction port, selecting which EVC this router sources express paths on.
func (r *Router) parityFor(out int) int {
	if out == topology.PortE || out == topology.PortW {
		return r.x & 1
	}
	return r.y & 1
}

// expressBlocked reports whether the two-hop express path via out is
// unusable: either the link to the intermediate router or the intermediate
// router's onward link (same direction) is dead.
func (r *Router) expressBlocked(out int) bool {
	st := r.cfg.Faults
	if st == nil {
		return false
	}
	return st.LinkDead(r.ID, out) || st.LinkDead(r.mid(out), out)
}

// expressRouteStable reports whether fault-aware lookahead routing keeps the
// express path straight. Without a fault schedule routes are pure DOR and an
// express-capable port is always the nominal route at both hops; under a
// schedule the committed port may be a detour, and the mid router's lookahead
// (recomputed by the network at send time) could turn — an express flit must
// travel straight through the relay latch, so such paths are ineligible.
func (r *Router) expressRouteStable(out, dst, class int) bool {
	st := r.cfg.Faults
	if st == nil {
		return true
	}
	return r.cfg.Routing.RouteAvoid(r.ID, dst, class, st) == out && r.cfg.Routing.RouteAvoid(r.mid(out), dst, class, st) == out
}

// mid returns the intermediate router of the express path via out.
func (r *Router) mid(out int) int { return r.mesh.NextHop(r.ID, out, 0).Router }

// expressCapable reports whether a packet leaving via out toward dst has at
// least two remaining hops in that dimension (l_max = 2 express paths). out is
// a direction port, 0–3: the only caller, PickVC, returns for an ejection
// port first, and a mesh's other output ports are its terminals.
func (r *Router) expressCapable(out, dst int) bool {
	dr, _, _ := r.mesh.NodeRouter(dst)
	dx, dy := r.mesh.Coord(dr)
	switch out {
	case topology.PortE:
		return dx-r.x >= 2
	case topology.PortW:
		return r.x-dx >= 2
	case topology.PortS:
		return dy-r.y >= 2
	default: // PortN
		return r.y-dy >= 2
	}
}

// Latch implements router.Policy: arriving express flits are forwarded
// through the latch in their arrival cycle, with absolute priority. Only the
// direction ports a flit is staged on are visited.
func (r *Router) Latch(now sim.Cycle) {
	for m := r.StagedMask() & (1<<len(oppositeIn) - 1); m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		f := r.Staged(i)
		if f.ExpressHops == 0 {
			continue
		}
		if f.NextOut != oppositeIn[i] {
			panic(fmt.Sprintf("evc router %d: express flit %v not travelling straight (in %d out %d)", r.ID, f, i, f.NextOut))
		}
		f.ExpressHops--
		// Hop accounting is head-only, as in the pipeline's ST: the packet
		// visits the intermediate router once, not once per flit. (Body flits
		// of one packet occupy different routers in the same cycle, so a
		// per-flit increment would also be a cross-router write.)
		if f.Kind.IsHead() {
			f.Packet.Hops++
		}
		r.ExpressForwards++
		r.Forward(now, i, f.NextOut)
	}
}

// PickVC implements router.Policy: express-capable packets prefer their
// parity EVC (dynamic EVC allocation); everything else takes the free NVC
// with the most credit. Ejection uses VC 0 — the NI drains every VC.
func (r *Router) PickVC(out, dst, class int, eject bool, busy []bool, credits []int16) int {
	if eject {
		return 0
	}
	if r.expressCapable(out, dst) && !r.expressBlocked(out) && r.expressRouteStable(out, dst, class) {
		if v := r.base + r.parityFor(out); !busy[v] && credits[v] > 0 {
			return v
		}
	}
	best, bestCred := -1, int16(-1)
	for v := 0; v < r.base; v++ {
		if !busy[v] && credits[v] > bestCred {
			best, bestCred = v, credits[v]
		}
	}
	return best
}

// Traversed implements router.Policy: a flit leaving on an EVC has one
// intermediate bypass ahead (l_max = 2). Ejection never allocates an EVC.
func (r *Router) Traversed(f *flit.Flit) {
	if f.VC >= r.base {
		f.ExpressHops = 1
	}
}

// PathDead implements router.Policy: a packet committed to an express VC is
// torn down when either link of its two-hop express path dies — its credits
// track the sink buffer two hops away, so it cannot simply wait out the fault
// at the intermediate router.
func (r *Router) PathDead(out, outVC int) bool {
	return outVC >= r.base && out < 4 && r.expressBlocked(out)
}
