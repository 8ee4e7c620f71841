// Package topology defines the interconnection-network topologies evaluated
// in the paper: 2D mesh, concentrated mesh (CMesh, Balfour & Dally),
// Multidrop Express Cube (MECS, Grot et al.) and Flattened Butterfly
// (FBFLY, Kim et al.) — paper §5 and §7.A.
//
// A topology is a port graph: routers with numbered input and output ports,
// terminals (nodes) attached to dedicated terminal ports, and a delivery
// function that resolves where a flit sent on an output port lands. Multidrop
// channels (MECS) are modelled by letting the delivery function depend on the
// flit's destination: the flit drops off at the router computed by
// dimension-order routing.
//
// Link latency models wire length: channels that span d tile-widths take d
// cycles of link traversal, matching the paper's T = H*t_router + D*t_link
// decomposition (§7.A) in which t_link is per-unit-length delay.
package topology

import "fmt"

// Direction port indices shared by mesh-like topologies.
const (
	PortE = 0 // +x
	PortW = 1 // -x
	PortN = 2 // -y
	PortS = 3 // +y
)

// Hop describes where a flit lands after leaving a router's output port.
type Hop struct {
	Router  int // destination router, or -1 when the port ejects to a terminal
	InPort  int // input port at the destination router (or terminal index when ejecting)
	Latency int // link traversal latency in cycles (>= 1)
}

// Topology is the structural interface consumed by the network assembler and
// the routing algorithms.
type Topology interface {
	// Name identifies the topology in reports ("mesh", "cmesh", ...).
	Name() string
	// Routers returns the number of routers.
	Routers() int
	// Nodes returns the number of terminals.
	Nodes() int
	// Concentration returns terminals per router.
	Concentration() int
	// Dims returns the router-grid dimensions.
	Dims() (kx, ky int)
	// InPorts and OutPorts return the port counts of router r (MECS is
	// asymmetric: few outputs, many inputs).
	InPorts(r int) int
	OutPorts(r int) int
	// NodeRouter returns the router a terminal attaches to, plus the input
	// port the terminal injects into and the output port it ejects from.
	NodeRouter(node int) (router, inPort, outPort int)
	// NextHop resolves delivery of a flit destined for dstNode that leaves
	// router r via output port out. For ejection ports, Hop.Router is -1 and
	// Hop.InPort is the terminal node ID.
	NextHop(r, out, dstNode int) Hop
	// Links visits every hop a flit leaving router r can make, in ascending
	// output-port order: one per wired direction port, one per drop-off of a
	// multidrop channel (ascending distance), one per terminal port. Each
	// hop is the NextHop of that port toward a destination routed through
	// it, so the walk over all routers is the port graph: what the network
	// assembler wires from, in time proportional to the links.
	Links(r int, visit func(out int, h Hop))
	// Route returns the dimension-order output port at router r toward
	// dstNode. class selects dimension order: 0 = X-first (XY),
	// 1 = Y-first (YX). Topologies with a single sensible DOR (MECS, FBFLY)
	// may ignore class. Returns the ejection port when dstNode is local.
	Route(r, dstNode, class int) int
	// AvgDistance returns the average Manhattan distance in tile units
	// between two uniformly chosen distinct terminals (used in reports).
	AvgDistance() float64
}

// grid is shared geometry for the four topologies: routers on a kx × ky grid
// with conc terminals per router and a tile-width span per router pitch.
type grid struct {
	kx, ky, conc int
	span         int // tile widths between adjacent routers (wire length model)
}

func (g grid) Routers() int               { return g.kx * g.ky }
func (g grid) Nodes() int                 { return g.kx * g.ky * g.conc }
func (g grid) Concentration() int         { return g.conc }
func (g grid) Dims() (kx, ky int)         { return g.kx, g.ky }
func (g grid) coord(r int) (x, y int)     { return r % g.kx, r / g.kx }
func (g grid) router(x, y int) int        { return y*g.kx + x }
func (g grid) nodeHome(node int) int      { return node / g.conc }
func (g grid) nodeSlot(node int) int      { return node % g.conc }
func (g grid) validNode(node int) bool    { return node >= 0 && node < g.Nodes() }
func (g grid) terminalPorts(base int) int { return base + g.conc }

func (g grid) checkNode(node int) {
	if !g.validNode(node) {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", node, g.Nodes()))
	}
}

// avgGridDistance computes the mean Manhattan distance (in tile units)
// between distinct terminals for a concentrated grid layout in which the
// conc terminals of a router sit at the router's position.
func (g grid) avgGridDistance() float64 {
	total := 0.0
	n := 0
	for a := 0; a < g.Routers(); a++ {
		ax, ay := g.coord(a)
		for b := 0; b < g.Routers(); b++ {
			bx, by := g.coord(b)
			d := abs(ax-bx) + abs(ay-by)
			pairs := g.conc * g.conc
			if a == b {
				pairs = g.conc * (g.conc - 1)
			}
			total += float64(d * g.span * pairs)
			n += pairs
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
