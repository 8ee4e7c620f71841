package topology

import "fmt"

// MECS is the Multidrop Express Cube (Grot, Hestness, Keckler & Mutlu,
// HPCA 2009): each router drives one multidrop channel per direction
// (E, W, N, S) that passes every router further along that direction; a flit
// drops off at the router chosen by routing. Output radix therefore stays at
// 4 + conc while the input side has a dedicated drop port per upstream
// router in the row/column. The paper (§7.A) configures MECS without
// replicated channels, noting its crossbar is simpler than FBFLY's.
//
// Port layout per router at (x, y):
//
//	outputs: 0..3 directions (E, W, N, S), 4.. terminals
//	inputs:  0 .. kx-2            row drop ports, ordered by source x
//	                              (skipping x itself)
//	         kx-1 .. kx+ky-3      column drop ports, ordered by source y
//	         kx+ky-2 ..           terminal ports
type MECS struct {
	grid
}

// NewMECS builds a kx × ky MECS with conc terminals per router. Channels
// span 2·distance tile widths (concentrated layout).
func NewMECS(kx, ky, conc int) *MECS {
	if kx < 2 || ky < 2 || conc < 1 {
		panic(fmt.Sprintf("topology: invalid mecs %dx%d conc %d", kx, ky, conc))
	}
	return &MECS{grid: grid{kx: kx, ky: ky, conc: conc, span: 2}}
}

// Name implements Topology.
func (m *MECS) Name() string { return "mecs" }

func (m *MECS) dropPorts() int { return m.kx - 1 + m.ky - 1 }

// InPorts implements Topology.
func (m *MECS) InPorts(r int) int { return m.terminalPorts(m.dropPorts()) }

// OutPorts implements Topology.
func (m *MECS) OutPorts(r int) int { return m.terminalPorts(4) }

// rowDrop returns the input port at a router with x-coordinate atX receiving
// from the row source at fromX.
func (m *MECS) rowDrop(atX, fromX int) int {
	if fromX < atX {
		return fromX
	}
	return fromX - 1
}

// colDrop returns the input port at a router with y-coordinate atY receiving
// from the column source at fromY.
func (m *MECS) colDrop(atY, fromY int) int {
	base := m.kx - 1
	if fromY < atY {
		return base + fromY
	}
	return base + fromY - 1
}

// NodeRouter implements Topology.
func (m *MECS) NodeRouter(node int) (router, inPort, outPort int) {
	m.checkNode(node)
	return m.nodeHome(node), m.dropPorts() + m.nodeSlot(node), 4 + m.nodeSlot(node)
}

// NextHop implements Topology. For direction ports the drop-off router is
// the one dimension-order routing targets: the destination's coordinate in
// the traversed dimension.
func (m *MECS) NextHop(r, out, dstNode int) Hop {
	x, y := m.coord(r)
	switch out {
	case PortE, PortW:
		dx, _ := m.coord(m.nodeHome(dstNode))
		if (out == PortE && dx <= x) || (out == PortW && dx >= x) {
			panic(fmt.Sprintf("topology: mecs flit to node %d misrouted on port %d at router %d", dstNode, out, r))
		}
		return Hop{Router: m.router(dx, y), InPort: m.rowDrop(dx, x), Latency: m.span * abs(dx-x)}
	case PortN, PortS:
		_, dy := m.coord(m.nodeHome(dstNode))
		if (out == PortS && dy <= y) || (out == PortN && dy >= y) {
			panic(fmt.Sprintf("topology: mecs flit to node %d misrouted on port %d at router %d", dstNode, out, r))
		}
		return Hop{Router: m.router(x, dy), InPort: m.colDrop(dy, y), Latency: m.span * abs(dy-y)}
	default:
		return Hop{Router: -1, InPort: r*m.conc + (out - 4), Latency: 1}
	}
}

// Links implements Topology: a multidrop channel makes one hop per router it
// passes, nearest first, so each direction port reports every drop-off
// further along its row or column.
func (m *MECS) Links(r int, visit func(out int, h Hop)) {
	x, y := m.coord(r)
	for dx := x + 1; dx < m.kx; dx++ {
		visit(PortE, m.NextHop(r, PortE, m.router(dx, y)*m.conc))
	}
	for dx := x - 1; dx >= 0; dx-- {
		visit(PortW, m.NextHop(r, PortW, m.router(dx, y)*m.conc))
	}
	for dy := y - 1; dy >= 0; dy-- {
		visit(PortN, m.NextHop(r, PortN, m.router(x, dy)*m.conc))
	}
	for dy := y + 1; dy < m.ky; dy++ {
		visit(PortS, m.NextHop(r, PortS, m.router(x, dy)*m.conc))
	}
	for out := 4; out < m.OutPorts(r); out++ {
		visit(out, m.NextHop(r, out, 0))
	}
}

// Route implements Topology: dimension-order with single-hop-per-dimension
// semantics (the multidrop channel carries the flit all the way to the turn
// point). Class 0 = X first, class 1 = Y first.
func (m *MECS) Route(r, dstNode, class int) int {
	m.checkNode(dstNode)
	dr := m.nodeHome(dstNode)
	if dr == r {
		return 4 + m.nodeSlot(dstNode)
	}
	x, y := m.coord(r)
	dx, dy := m.coord(dr)
	if class == 0 {
		if dx != x {
			return stepX(x, dx)
		}
		return stepY(y, dy)
	}
	if dy != y {
		return stepY(y, dy)
	}
	return stepX(x, dx)
}

// AvgDistance implements Topology.
func (m *MECS) AvgDistance() float64 { return m.avgGridDistance() }
