package experiments

import (
	"context"
	"fmt"

	"pseudocircuit/internal/core"
	"pseudocircuit/noc"
)

// FaultWindowResult holds the fault-window figure: latency, throughput,
// energy and pseudo-circuit reuse measured before, during and after a
// scheduled fault, per scheme. The pre window calibrates each scheme's
// healthy behavior; the fault window shows the detour/drop cost; the post
// window shows recovery once the link or router comes back. FaultEvents,
// PacketsDropped, PacketsRerouted and PCFaultTerminated attribute the
// in-flight damage to the window whose fault transition caused it.
type FaultWindowResult struct {
	Configs  []string // scheme + fault kind label per row group
	Segments []string // pre, fault, post
	// Cells[config][segment] is that window's measurement.
	Cells [][]noc.Result
}

// FaultWindow measures the fault-window figure on the paper's standard 8×8
// mesh (XY, static VA, uniform random at the Fig. 12 low-load point). The
// run is split into pre (¼ of the measured cycles), fault (½) and post (¼)
// windows; the schedule takes the fault down at the pre/fault boundary and
// back up at the fault/post boundary. Cycles in a schedule are absolute, so
// the warmup offset is added here.
//
// Each compared router architecture is paired with a fault. The faulted
// element is router 27 (center of the 8×8 mesh, x=3 y=3): the link fault
// kills its east output link, the router fault kills the whole router. Every
// packet is salvaged where possible (reroute policy) so the figure shows
// fault-aware adaptive routing, not just drops.
func FaultWindow(o Options) FaultWindowResult {
	o = o.defaults()
	pre := o.Measure / 4
	during := o.Measure / 2
	post := o.Measure - pre - during
	downAt := int64(o.Warmup + pre)
	upAt := int64(o.Warmup + pre + during)

	link := []noc.FaultEvent{
		{Cycle: downAt, Kind: noc.LinkDown, Router: 27, Port: 0},
		{Cycle: upAt, Kind: noc.LinkUp, Router: 27, Port: 0},
	}
	rtr := []noc.FaultEvent{
		{Cycle: downAt, Kind: noc.RouterDown, Router: 27},
		{Cycle: upAt, Kind: noc.RouterUp, Router: 27},
	}
	res := FaultWindowResult{Segments: []string{"pre", "fault", "post"}}
	var points []point
	for _, c := range []struct {
		label  string
		scheme core.Scheme
		evc    bool
		events []noc.FaultEvent
	}{
		{label: "Baseline (link)", scheme: core.Baseline, events: link},
		{label: "Pseudo+S+B (link)", scheme: core.PseudoSB, events: link},
		{label: "Pseudo+S+B (router)", scheme: core.PseudoSB, events: rtr},
		{label: "EVC (link)", scheme: core.Baseline, evc: true, events: link},
	} {
		res.Configs = append(res.Configs, c.label)
		p := meshPoint(c.scheme, noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.10, PacketSize: 5})
		p.UseEVC = c.evc
		p.Faults = &noc.FaultSchedule{Policy: noc.FaultReroute, Events: c.events}
		points = append(points, p)
	}
	res.Cells = make([][]noc.Result, len(points))
	o.each(points, func(i int, e noc.Experiment, n *noc.Network, w noc.Workload) {
		res.Cells[i], _ = e.RunWindows(context.Background(), n, w, []int{pre, during, post}, 0, nil) // never cancelled
	})
	return res
}

// Tables renders one row per (config, segment).
func (r FaultWindowResult) Tables() []Table {
	t := Table{
		ID:     "faults",
		Title:  "Latency/energy/reuse across a fault window (8x8 mesh, XY, static VA, UR 0.10, reroute policy)",
		Header: []string{"config", "window", "latency", "thr (f/n/c)", "energy (pJ)", "reuse", "events", "dropped", "rerouted", "pc torn"},
	}
	for i, cfg := range r.Configs {
		for s, seg := range r.Segments {
			c := r.Cells[i][s]
			t.Rows = append(t.Rows, []string{
				cfg, seg,
				num(c.AvgLatency),
				fmt.Sprintf("%.3f", c.Throughput),
				fmt.Sprintf("%.0f", c.EnergyPJ),
				pct(c.Reusability),
				fmt.Sprintf("%d", c.FaultEvents),
				fmt.Sprintf("%d", c.PacketsDropped),
				fmt.Sprintf("%d", c.PacketsRerouted),
				fmt.Sprintf("%d", c.PCFaultTerminated),
			})
		}
	}
	return []Table{t}
}

// FaultHeatmapResult holds per-router deltas between a healthy window and a
// faulted window of equal length on the same run: how pseudo-circuit reuse
// collapses at the dead router and traffic concentrates around it. The
// spatial companion to FaultWindow — a fault, viewed per router.
type FaultHeatmapResult struct {
	KX, KY int
	Router int // faulted router
	// Per router (ID = y*KX + x): faulted-window value minus pre-window value.
	ReuseDelta []float64
	StallDelta []int64
}

// FaultHeatmap runs Pseudo+S+B on the 8×8 mesh, measures one healthy window,
// then takes router 27 down for a second window of the same length and
// reports the per-router deltas.
func FaultHeatmap(o Options) FaultHeatmapResult {
	o = o.defaults()
	const kx, ky, rtr = 8, 8, 27
	half := o.Measure / 2
	p := meshPoint(noc.PseudoSB, noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.10, PacketSize: 5})
	p.Faults = &noc.FaultSchedule{
		Policy: noc.FaultReroute,
		Events: []noc.FaultEvent{
			{Cycle: int64(o.Warmup + half), Kind: noc.RouterDown, Router: rtr},
			{Cycle: int64(o.Warmup + o.Measure - 1), Kind: noc.RouterUp, Router: rtr},
		},
	}
	res := FaultHeatmapResult{
		KX: kx, KY: ky, Router: rtr,
		ReuseDelta: make([]float64, kx*ky),
		StallDelta: make([]int64, kx*ky),
	}
	o.each([]point{p}, func(_ int, e noc.Experiment, n *noc.Network, w noc.Workload) {
		snapshot := func(sign float64) {
			for id, r := range n.Registry().Routers() {
				t := r.Sum()
				res.ReuseDelta[id] += sign * t.Reusability()
				res.StallDelta[id] += int64(sign) * int64(t.CreditStalls)
			}
		}
		e.RunWindows(context.Background(), n, w, []int{half, e.Measure - half}, 0, func(n *noc.Network) {
			switch int(n.Now()) {
			case e.Warmup + half:
				snapshot(-1)
			case e.Warmup + e.Measure:
				snapshot(+1)
			}
		}) // never cancelled; the deltas are the hook's
	})
	return res
}

// Tables renders the delta grids.
func (h FaultHeatmapResult) Tables() []Table {
	return []Table{
		meshGrid("fault-heatmap.reuse",
			fmt.Sprintf("Pseudo-circuit reuse delta, router %d down (faulted minus healthy window)", h.Router),
			h.KX, h.KY, func(r int) string { return pct(h.ReuseDelta[r]) }),
		meshGrid("fault-heatmap.stalls",
			fmt.Sprintf("Credit-stall cycle delta, router %d down (faulted minus healthy window)", h.Router),
			h.KX, h.KY, func(r int) string { return fmt.Sprintf("%+d", h.StallDelta[r]) }),
	}
}
