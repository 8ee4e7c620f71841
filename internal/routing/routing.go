// Package routing implements the routing algorithms the paper evaluates
// (§5): the two dimension-order algorithms XY and YX, and O1TURN (Seo et
// al., ISCA 2005), which picks the dimension order uniformly at random per
// packet and is made deadlock-free by splitting the virtual channels into an
// XY class and a YX class.
//
// All algorithms are used with lookahead routing (Galles): the output port
// for the next router is computed during the current hop and carried in the
// flit, keeping route computation off the router critical path (§3.A).
package routing

import (
	"fmt"

	"pseudocircuit/internal/fault"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
)

// Algorithm identifies a routing algorithm.
type Algorithm int

const (
	// XY routes X-dimension first (DOR).
	XY Algorithm = iota
	// YX routes Y-dimension first (DOR).
	YX
	// O1TURN randomly chooses XY or YX per packet, with VC classes for
	// deadlock freedom.
	O1TURN
)

func (a Algorithm) String() string {
	switch a {
	case XY:
		return "XY"
	case YX:
		return "YX"
	case O1TURN:
		return "O1TURN"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Engine binds an algorithm to a topology.
type Engine struct {
	algo Algorithm
	topo topology.Topology
}

// New builds a routing engine.
func New(algo Algorithm, topo topology.Topology) *Engine {
	return &Engine{algo: algo, topo: topo}
}

// NumClasses returns how many VC classes the algorithm needs for deadlock
// freedom: O1TURN needs 2 (XY flits and YX flits must not share VCs); the
// single-order algorithms need 1.
func (e *Engine) NumClasses() int {
	if e.algo == O1TURN {
		return 2
	}
	return 1
}

// ClassFor picks the routing class for a new packet. O1TURN chooses the
// first dimension uniformly at random (paper §5); XY and YX always use
// class 0.
func (e *Engine) ClassFor(rng *sim.RNG) int {
	if e.algo == O1TURN {
		return rng.Intn(2)
	}
	return 0
}

// DimOrder returns the topology dimension order (0 = X-first, 1 = Y-first)
// the algorithm routes class class with.
func (e *Engine) DimOrder(class int) int {
	switch e.algo {
	case XY:
		return 0
	case YX:
		return 1
	case O1TURN:
		return class
	default:
		panic(fmt.Sprintf("routing: unknown algorithm %d", int(e.algo)))
	}
}

// Route returns the output port at router r for a packet to dstNode with
// routing class class.
func (e *Engine) Route(r, dstNode, class int) int {
	return e.topo.Route(r, dstNode, e.DimOrder(class))
}

// RouteAvoid is the fault-aware variant of Route: it asks the fault view st
// which links are dead and detours around them with a fixed, deterministic
// preference order, so both schedules make the same choice. A nil view (no
// fault schedule) is Route.
//
// Selection order:
//
//  1. the nominal DOR port, if it is an ejection port or its link is alive;
//  2. the other dimension's DOR step toward the destination (the O1TURN
//     alternative), if that port is wired and alive;
//  3. the first wired, alive direction port in fixed E, W, N, S order
//     (a deterministic misroute);
//  4. the nominal port — every escape is dead, so the flit waits in place
//     for the link to recover.
//
// Misrouting can raise hop counts, so the network bounds livelock with a hop
// limit when a fault schedule is configured.
func (e *Engine) RouteAvoid(r, dstNode, class int, st *fault.State) int {
	nominal := e.Route(r, dstNode, class)
	if st == nil || nominal >= 4 || !st.LinkDead(r, nominal) {
		return nominal
	}
	for dimClass := 0; dimClass < 2; dimClass++ {
		if alt := e.topo.Route(r, dstNode, dimClass); alt != nominal && alt < 4 && st.Wired(r, alt) && !st.LinkDead(r, alt) {
			return alt
		}
	}
	for out := 0; out < 4; out++ {
		if st.Wired(r, out) && !st.LinkDead(r, out) {
			return out
		}
	}
	return nominal
}
