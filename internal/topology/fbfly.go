package topology

import "fmt"

// FBFly is the flattened butterfly (Kim, Balfour & Dally, MICRO 2007): every
// router has a dedicated bidirectional channel to every other router in its
// row and in its column, so dimension-order routing needs at most one hop
// per dimension. Paper §7.A evaluates it with 4 VCs per input port and the
// same channel bandwidth as the mesh.
//
// Port layout per router at (x, y) (symmetric in/out):
//
//	0 .. kx-2           row channels, ordered by the remote x coordinate
//	                    (skipping x itself)
//	kx-1 .. kx+ky-3     column channels, ordered by the remote y coordinate
//	                    (skipping y itself)
//	kx+ky-2 ..          terminal ports
type FBFly struct {
	grid
}

// NewFBFly builds a kx × ky flattened butterfly with conc terminals per
// router. Express channels span 2·distance tile widths like the CMesh they
// replace (routers spaced two tiles apart).
func NewFBFly(kx, ky, conc int) *FBFly {
	if kx < 2 || ky < 2 || conc < 1 {
		panic(fmt.Sprintf("topology: invalid fbfly %dx%d conc %d", kx, ky, conc))
	}
	return &FBFly{grid: grid{kx: kx, ky: ky, conc: conc, span: 2}}
}

// Name implements Topology.
func (f *FBFly) Name() string { return "fbfly" }

func (f *FBFly) dirPorts() int { return f.kx - 1 + f.ky - 1 }

// InPorts implements Topology.
func (f *FBFly) InPorts(r int) int { return f.terminalPorts(f.dirPorts()) }

// OutPorts implements Topology.
func (f *FBFly) OutPorts(r int) int { return f.terminalPorts(f.dirPorts()) }

// xPort returns the port index at router x-coordinate x that reaches row
// peer at x-coordinate tx.
func (f *FBFly) xPort(x, tx int) int {
	if tx < x {
		return tx
	}
	return tx - 1
}

// yPort returns the port index at router y-coordinate y that reaches
// column peer at y-coordinate ty.
func (f *FBFly) yPort(y, ty int) int {
	base := f.kx - 1
	if ty < y {
		return base + ty
	}
	return base + ty - 1
}

// NodeRouter implements Topology.
func (f *FBFly) NodeRouter(node int) (router, inPort, outPort int) {
	f.checkNode(node)
	p := f.dirPorts() + f.nodeSlot(node)
	return f.nodeHome(node), p, p
}

// NextHop implements Topology.
func (f *FBFly) NextHop(r, out, dstNode int) Hop {
	x, y := f.coord(r)
	switch {
	case out < f.kx-1: // row channel
		tx := out
		if tx >= x {
			tx++
		}
		return Hop{Router: f.router(tx, y), InPort: f.rowPortAt(tx, x), Latency: f.span * abs(tx-x)}
	case out < f.dirPorts(): // column channel
		ty := out - (f.kx - 1)
		if ty >= y {
			ty++
		}
		return Hop{Router: f.router(x, ty), InPort: f.colPortAt(ty, y), Latency: f.span * abs(ty-y)}
	default: // ejection
		return Hop{Router: -1, InPort: r*f.conc + (out - f.dirPorts()), Latency: 1}
	}
}

// Links implements Topology: every direction port is a dedicated channel to
// one row or column peer, then the terminal ports.
func (f *FBFly) Links(r int, visit func(out int, h Hop)) {
	for out := 0; out < f.OutPorts(r); out++ {
		visit(out, f.NextHop(r, out, 0))
	}
}

// rowPortAt returns the input port at a router with x-coordinate atX that
// receives from the row peer at fromX.
func (f *FBFly) rowPortAt(atX, fromX int) int { return f.xPort(atX, fromX) }

// colPortAt returns the input port at a router with y-coordinate atY that
// receives from the column peer at fromY.
func (f *FBFly) colPortAt(atY, fromY int) int { return f.yPort(atY, fromY) }

// Route implements Topology: dimension-order (X then Y for class 0, Y then X
// for class 1); each dimension is one hop.
func (f *FBFly) Route(r, dstNode, class int) int {
	f.checkNode(dstNode)
	dr := f.nodeHome(dstNode)
	if dr == r {
		return f.dirPorts() + f.nodeSlot(dstNode)
	}
	x, y := f.coord(r)
	dx, dy := f.coord(dr)
	if class == 0 {
		if dx != x {
			return f.xPort(x, dx)
		}
		return f.yPort(y, dy)
	}
	if dy != y {
		return f.yPort(y, dy)
	}
	return f.xPort(x, dx)
}

// AvgDistance implements Topology.
func (f *FBFly) AvgDistance() float64 { return f.avgGridDistance() }
