package network_test

import (
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
	"pseudocircuit/internal/vcalloc"
)

func runUniform(t *testing.T, scheme core.Scheme, rate float64) *network.Network {
	t.Helper()
	cfg := network.DefaultConfig(topology.NewMesh(8, 8))
	cfg.Opts = core.DefaultOptions(scheme)
	cfg.Algorithm = routing.XY
	cfg.Policy = vcalloc.Static
	n := network.New(cfg)
	n.CheckInvariants = true
	w := traffic.NewSynthetic(traffic.Config{
		Pattern: traffic.UniformRandom,
		Nodes:   64,
		Rate:    rate,
	}, sim.NewRNG(42))
	n.Run(w, 1000)
	n.ResetStats()
	n.Run(w, 3000)
	if n.Stats.LatencySamples == 0 {
		t.Fatalf("scheme %v: no measured deliveries", scheme)
	}
	return n
}

func TestSmokeSchemes(t *testing.T) {
	base := runUniform(t, core.Baseline, 0.05)
	psb := runUniform(t, core.PseudoSB, 0.05)
	baseT, psbT := base.Registry().Totals(), psb.Registry().Totals()
	t.Logf("baseline: %+v", baseT)
	t.Logf("pseudo+s+b: %+v", psbT)
	if baseT.PCReused != 0 {
		t.Errorf("baseline reused pseudo-circuits: %d", baseT.PCReused)
	}
	if psbT.Reusability() <= 0.05 {
		t.Errorf("pseudo+s+b reusability too low: %.3f", psbT.Reusability())
	}
	if psb.Stats.AvgLatency() >= base.Stats.AvgLatency() {
		t.Errorf("pseudo+s+b latency %.2f not better than baseline %.2f",
			psb.Stats.AvgLatency(), base.Stats.AvgLatency())
	}
}
