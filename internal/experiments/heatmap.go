package experiments

import (
	"fmt"

	"pseudocircuit/noc"
)

// HeatmapResult holds per-router observability metrics over a mesh — the
// spatial view behind the paper's position-dependent reusability claims
// (Fig. 1 measures locality network-wide; the registry shows where it
// concentrates). Rendered as KY×KX tables, one cell per router.
type HeatmapResult struct {
	KX, KY int
	Scheme string
	Rate   float64
	// Per router (ID = y*KX + x), measured window only.
	Reuse        []float64 // pseudo-circuit reuse fraction
	Bypass       []float64 // buffer-bypass fraction
	CreditStalls []uint64  // credit-stall cycles summed over input ports
	BufHighWater []int     // deepest VC buffer across input ports
}

// RouterHeatmap runs the paper's standard mesh configuration (8×8, XY,
// static VA, Pseudo+S+B, uniform random at the given Fig. 12 low-load point)
// and returns the spatial metrics from the routers' rows.
func RouterHeatmap(o Options) HeatmapResult {
	o = o.defaults()
	const kx, ky, rate = 8, 8, 0.10
	p := meshPoint(noc.PseudoSB, noc.Synthetic{Pattern: noc.UniformRandom, Rate: rate, PacketSize: 5})
	res := HeatmapResult{
		KX: kx, KY: ky, Scheme: "Pseudo+S+B", Rate: rate,
		Reuse:        make([]float64, kx*ky),
		Bypass:       make([]float64, kx*ky),
		CreditStalls: make([]uint64, kx*ky),
		BufHighWater: make([]int, kx*ky),
	}
	o.each([]point{p}, func(_ int, e noc.Experiment, n *noc.Network, w noc.Workload) {
		e.RunOn(n, w)
		for id, r := range n.Registry().Routers() {
			t := r.Sum()
			res.Reuse[id] = t.Reusability()
			res.Bypass[id] = t.BypassRate()
			res.CreditStalls[id] = t.CreditStalls
			res.BufHighWater[id] = t.BufHighWater
		}
	})
	return res
}

// Tables renders one KY×KX grid per metric.
func (h HeatmapResult) Tables() []Table {
	grid := func(id, metric string, cell func(r int) string) Table {
		title := fmt.Sprintf("Per-router %s, %s, UR %.2f on %dx%d mesh", metric, h.Scheme, h.Rate, h.KX, h.KY)
		return meshGrid(id, title, h.KX, h.KY, cell)
	}
	return []Table{
		grid("heatmap.reuse", "pseudo-circuit reuse", func(r int) string { return pct(h.Reuse[r]) }),
		grid("heatmap.bypass", "buffer bypass", func(r int) string { return pct(h.Bypass[r]) }),
		grid("heatmap.stalls", "credit-stall cycles", func(r int) string { return fmt.Sprintf("%d", h.CreditStalls[r]) }),
		grid("heatmap.bufhwm", "buffer high-water (flits)", func(r int) string { return fmt.Sprintf("%d", h.BufHighWater[r]) }),
	}
}
