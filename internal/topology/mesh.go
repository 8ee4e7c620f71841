package topology

import "fmt"

// Mesh is a kx × ky 2D mesh with conc terminals per router. With conc == 1
// it is the plain mesh of paper §6.B (synthetic experiments, 8×8); with
// conc == 4 it is the concentrated mesh (CMesh) of Balfour & Dally used for
// the CMP experiments (4×4 routers, 2 cores + 2 L2 banks per router,
// paper Fig. 7).
//
// Port layout per router: 0..3 are E, W, N, S direction ports (present on
// both input and output sides even at grid edges; edge ports are simply
// unused), 4..4+conc-1 are terminal ports (injection on the input side,
// ejection on the output side).
type Mesh struct {
	grid
	name string
}

// NewMesh builds a kx × ky mesh with one terminal per router and unit link
// span.
func NewMesh(kx, ky int) *Mesh {
	return newMesh("mesh", kx, ky, 1, 1)
}

// NewCMesh builds a kx × ky concentrated mesh with conc terminals per
// router. Link traversal is one cycle, following the paper's platform
// assumption ("we assume link traversal takes one cycle", §3.A) even though
// concentrated routers are spaced two tile widths apart.
func NewCMesh(kx, ky, conc int) *Mesh {
	return newMesh("cmesh", kx, ky, conc, 1)
}

func newMesh(name string, kx, ky, conc, span int) *Mesh {
	if kx < 2 || ky < 2 || conc < 1 {
		panic(fmt.Sprintf("topology: invalid mesh %dx%d conc %d", kx, ky, conc))
	}
	return &Mesh{grid: grid{kx: kx, ky: ky, conc: conc, span: span}, name: name}
}

// Name implements Topology.
func (m *Mesh) Name() string { return m.name }

// Coord returns router r's grid coordinates.
func (m *Mesh) Coord(r int) (x, y int) { return m.grid.coord(r) }

// InPorts implements Topology.
func (m *Mesh) InPorts(r int) int { return m.terminalPorts(4) }

// OutPorts implements Topology.
func (m *Mesh) OutPorts(r int) int { return m.terminalPorts(4) }

// NodeRouter implements Topology.
func (m *Mesh) NodeRouter(node int) (router, inPort, outPort int) {
	m.checkNode(node)
	p := 4 + m.nodeSlot(node)
	return m.nodeHome(node), p, p
}

// NextHop implements Topology.
func (m *Mesh) NextHop(r, out, dstNode int) Hop {
	x, y := m.coord(r)
	switch out {
	case PortE:
		return m.neighbor(x+1, y, PortW)
	case PortW:
		return m.neighbor(x-1, y, PortE)
	case PortN:
		return m.neighbor(x, y-1, PortS)
	case PortS:
		return m.neighbor(x, y+1, PortN)
	default:
		node := r*m.conc + (out - 4)
		return Hop{Router: -1, InPort: node, Latency: 1}
	}
}

// Links implements Topology: the direction ports that have a neighbor (edge
// ports are unwired), then the terminal ports. Each hop is NextHop's, built
// from r directly: a NextHop call per link would divide r into coordinates
// again each time (TestLinksAreTheRoutedHops holds the two to each other).
func (m *Mesh) Links(r int, visit func(out int, h Hop)) {
	x, y := m.coord(r)
	if x+1 < m.kx {
		visit(PortE, Hop{Router: r + 1, InPort: PortW, Latency: m.span})
	}
	if x > 0 {
		visit(PortW, Hop{Router: r - 1, InPort: PortE, Latency: m.span})
	}
	if y > 0 {
		visit(PortN, Hop{Router: r - m.kx, InPort: PortS, Latency: m.span})
	}
	if y+1 < m.ky {
		visit(PortS, Hop{Router: r + m.kx, InPort: PortN, Latency: m.span})
	}
	for k := 0; k < m.conc; k++ {
		visit(4+k, Hop{Router: -1, InPort: r*m.conc + k, Latency: 1})
	}
}

func (m *Mesh) neighbor(x, y, inPort int) Hop {
	if x < 0 || x >= m.kx || y < 0 || y >= m.ky {
		panic(fmt.Sprintf("topology: mesh hop off the grid to (%d,%d)", x, y))
	}
	return Hop{Router: m.router(x, y), InPort: inPort, Latency: m.span}
}

// Route implements Topology: dimension-order routing, class 0 = XY,
// class 1 = YX.
func (m *Mesh) Route(r, dstNode, class int) int {
	m.checkNode(dstNode)
	dr := m.nodeHome(dstNode)
	if dr == r {
		return 4 + m.nodeSlot(dstNode)
	}
	x, y := m.coord(r)
	dx, dy := m.coord(dr)
	if class == 0 { // XY
		if dx != x {
			return stepX(x, dx)
		}
		return stepY(y, dy)
	}
	// YX
	if dy != y {
		return stepY(y, dy)
	}
	return stepX(x, dx)
}

// AvgDistance implements Topology.
func (m *Mesh) AvgDistance() float64 { return m.avgGridDistance() }

func stepX(x, dx int) int {
	if dx > x {
		return PortE
	}
	return PortW
}

func stepY(y, dy int) int {
	if dy > y {
		return PortS
	}
	return PortN
}
