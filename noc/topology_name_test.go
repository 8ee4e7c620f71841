package noc

import "testing"

// nameOnly is a Topology that answers only what topologyName asks, so the
// printer can be checked at dimensions no constructor accepts.
type nameOnly struct {
	Topology  // nil: never called
	kind      string
	kx, ky, c int
}

func (n nameOnly) Name() string       { return n.kind }
func (n nameOnly) Dims() (kx, ky int) { return n.kx, n.ky }
func (n nameOnly) Concentration() int { return n.c }

// FuzzParseTopologyName: a name ParseTopologyName accepts prints back
// byte-identical through topologyName (through a built topology too, where
// the dimensions are small enough to build), and a name topologyName
// prints parses to the kind and dimensions it was printed from.
func FuzzParseTopologyName(f *testing.F) {
	for _, name := range []string{
		"mesh8x8", "cmesh4x4x4", "mecs8x2x4", "fbfly4x4x2", "mesh0x4", "mesh24x24",
		"mesh4x4x9", "mesh4x4junk", "mesh 4x4", "mesh+4x4", "mesh8x8x2", "mesh04x4", "cmesh4x4",
	} {
		f.Add(name, uint8(0), uint32(4), uint32(4), uint32(1))
	}
	f.Add("", uint8(1), uint32(0), uint32(10), uint32(64))
	f.Add("fbfly", uint8(3), uint32(1<<31), uint32(7), uint32(0))
	kinds := [...]string{"mesh", "cmesh", "mecs", "fbfly"}
	f.Fuzz(func(t *testing.T, name string, k uint8, kx, ky, c uint32) {
		if kind, x, y, cc, err := ParseTopologyName(name); err == nil {
			if back := topologyName(nameOnly{kind: kind, kx: x, ky: y, c: cc}); back != name {
				t.Errorf("%q parsed as %s %dx%dx%d, which prints %q", name, kind, x, y, cc, back)
			}
			if x <= 16 && y <= 16 && cc <= 8 {
				if topo, err := ParseTopology(name); err == nil && topologyName(topo) != name {
					t.Errorf("%q built a topology that prints %q", name, topologyName(topo))
				}
			}
		}
		kind := kinds[k%4]
		if kind == "mesh" {
			c = 1
		}
		printed := topologyName(nameOnly{kind: kind, kx: int(kx), ky: int(ky), c: int(c)})
		gk, gx, gy, gc, err := ParseTopologyName(printed)
		if err != nil || gk != kind || gx != int(kx) || gy != int(ky) || gc != int(c) {
			t.Errorf("%s %dx%dx%d printed as %q, which parses to %s %dx%dx%d, %v", kind, kx, ky, c, printed, gk, gx, gy, gc, err)
		}
	})
}
