package experiments

import (
	"fmt"

	"pseudocircuit/internal/core"
	"pseudocircuit/noc"
)

// churnLevel is one intensity point of the churn figure: per-cycle Markov
// transition probabilities for links and routers.
type churnLevel struct {
	label                string
	linkFail, linkRepair float64
	rtrFail, rtrRepair   float64
}

// churnLevels are the figure's x-axis. Mean downtime is 1/repair cycles; the
// levels are calibrated so "low" perturbs a few links briefly, "med" keeps a
// couple of links down most of the time, and "high" adds occasional
// whole-router outages — degraded but not collapsed at the figure's 0.05
// load point.
var churnLevels = []churnLevel{
	{label: "none"},
	{label: "low", linkFail: 2e-6, linkRepair: 0.02},
	{label: "med", linkFail: 1e-5, linkRepair: 0.01},
	{label: "high", linkFail: 2e-5, linkRepair: 0.005, rtrFail: 1e-6, rtrRepair: 0.005},
}

// churnConfigs are the compared router architectures.
var churnConfigs = []struct {
	label  string
	scheme core.Scheme
	evc    bool
}{
	{label: "Pseudo+S+B", scheme: core.PseudoSB},
	{label: "Pseudo", scheme: core.Pseudo},
	{label: "EVC", scheme: core.Baseline, evc: true},
}

// ChurnResult holds the churn figure: delivered latency, throughput, energy
// per delivered flit (the reliability overhead shows up there), fault
// exposure and the reliability layer's recovery work (retransmits,
// duplicates, abandoned packets) as seeded stochastic fault churn rises, per
// scheme.
type ChurnResult struct {
	Configs []string
	Levels  []string
	// Cells[config][level] is that run's measurement.
	Cells [][]noc.Result
}

// Churn measures end-to-end reliable delivery under rising fault churn on the
// paper's standard 8×8 mesh (XY, static VA, uniform random at a low 0.05
// load so fault damage is visible rather than drowned in congestion).
// Reliability runs with its default timeout/budget; the reroute salvage
// policy gives every scheme its best fault response. Each (config, level)
// cell is an independent run with the same traffic seed — only the churn
// varies, so columns are directly comparable.
func Churn(o Options) ChurnResult {
	o = o.defaults()
	var res ChurnResult
	for _, l := range churnLevels {
		res.Levels = append(res.Levels, l.label)
	}
	var points []point
	for _, c := range churnConfigs {
		res.Configs = append(res.Configs, c.label)
		for li, l := range churnLevels {
			p := meshPoint(c.scheme, noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.05, PacketSize: 5})
			p.UseEVC = c.evc
			p.Reliable = &noc.Reliability{}
			if l.linkFail > 0 || l.rtrFail > 0 {
				p.Churn = &noc.FaultChurn{
					Seed:         o.Seed + uint64(li), // same process per level across configs
					LinkFail:     l.linkFail,
					LinkRepair:   l.linkRepair,
					RouterFail:   l.rtrFail,
					RouterRepair: l.rtrRepair,
					Policy:       noc.FaultReroute,
				}
			}
			points = append(points, p)
		}
	}
	res.Cells = rowsOf(o.run(points), len(churnLevels))
	return res
}

// Tables renders one row per (config, churn level).
func (r ChurnResult) Tables() []Table {
	t := Table{
		ID:     "churn",
		Title:  "Reliable delivery under fault churn (8x8 mesh, XY, static VA, UR 0.05, reroute policy, default reliability)",
		Header: []string{"config", "churn", "latency", "thr (f/n/c)", "pJ/flit", "events", "dropped", "retransmitted", "dups", "failed"},
	}
	for i, cfg := range r.Configs {
		for s, lvl := range r.Levels {
			c := r.Cells[i][s]
			perFlit := 0.0
			if c.FlitsDelivered > 0 {
				perFlit = c.EnergyPJ / float64(c.FlitsDelivered)
			}
			t.Rows = append(t.Rows, []string{
				cfg, lvl,
				num(c.AvgLatency),
				fmt.Sprintf("%.3f", c.Throughput),
				fmt.Sprintf("%.2f", perFlit),
				fmt.Sprintf("%d", c.FaultEvents),
				fmt.Sprintf("%d", c.PacketsDropped),
				fmt.Sprintf("%d", c.PacketsRetransmitted),
				fmt.Sprintf("%d", c.DuplicatesDropped),
				fmt.Sprintf("%d", c.DeliveryFailed),
			})
		}
	}
	return []Table{t}
}
