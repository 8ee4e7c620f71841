package cmp_test

import (
	"testing"

	"pseudocircuit/internal/cmp"
	"pseudocircuit/internal/core"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/vcalloc"
)

func buildCMP(t *testing.T, scheme core.Scheme, profName string) (*network.Network, *cmp.Workload) {
	t.Helper()
	topo := topology.NewCMesh(4, 4, 4)
	cfg := network.DefaultConfig(topo)
	cfg.Opts = core.DefaultOptions(scheme)
	cfg.Policy = vcalloc.Static
	n := network.New(cfg)
	prof, ok := cmp.ProfileByName(profName)
	if !ok {
		t.Fatalf("unknown profile %q", profName)
	}
	w := cmp.New(topo, cmp.PaperTableI(), prof, sim.NewRNG(7))
	return n, w
}

func TestCMPSmoke(t *testing.T) {
	n, w := buildCMP(t, core.PseudoSB, "fma3d")
	n.CheckInvariants = true
	n.Run(w, 2000)
	n.ResetStats()
	n.Run(w, 8000)
	t.Logf("fma3d pseudo+s+b: %+v misses=%d", n.Stats, w.TotalMisses())
	if w.TotalMisses() == 0 {
		t.Fatal("no misses generated")
	}
	if n.Stats.PacketsDelivered == 0 {
		t.Fatal("no packets delivered")
	}
	if n.Registry().Totals().Reusability() == 0 {
		t.Error("no pseudo-circuit reuse on CMP traffic")
	}
}

func TestCMPDrains(t *testing.T) {
	n, w := buildCMP(t, core.Baseline, "blackscholes")
	n.CheckInvariants = true
	w.MaxMisses = 500
	if !n.Drain(w, 200000) {
		t.Fatalf("network failed to drain: inflight=%d queued=%d", n.InFlight(), n.QueuedPackets())
	}
	if !n.Quiescent() {
		t.Error("network not quiescent after drain")
	}
	if got := w.TotalMisses(); got != 500 {
		t.Errorf("TotalMisses = %d, want 500", got)
	}
}

func TestCMPLocalitySignature(t *testing.T) {
	// The paper's Fig. 1 point: crossbar-connection locality exceeds
	// end-to-end locality on application traffic.
	n, w := buildCMP(t, core.Baseline, "equake")
	n.Run(w, 2000)
	n.ResetStats()
	n.Run(w, 10000)
	e2e, xbar := n.Stats.E2ELocality(), n.Registry().Totals().XbarLocality()
	t.Logf("equake locality: e2e=%.3f xbar=%.3f", e2e, xbar)
	if xbar <= e2e {
		t.Errorf("crossbar locality %.3f not above end-to-end %.3f", xbar, e2e)
	}
}
