package evc_test

import (
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/evc"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/router"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
)

// TestEVCDrainsClean: after traffic stops, the EVC network is quiescent —
// express latches empty, credits conserved (an unbalanced credit relay
// would trip the credit-overflow panics or strand flits).
func TestEVCDrainsClean(t *testing.T) {
	m := topology.NewMesh(6, 6)
	cfg := evcConfig(m)
	n := network.New(cfg)
	n.CheckInvariants = true
	w := traffic.NewFlows(
		traffic.Flow{Src: 0, Dst: 5, Size: 5, Period: 3, Count: 60},  // long row: express
		traffic.Flow{Src: 30, Dst: 2, Size: 5, Period: 4, Count: 40}, // row+column
		traffic.Flow{Src: 7, Dst: 8, Size: 1, Period: 2, Count: 90},  // 1 hop: NVC only
	)
	if !n.Drain(w, 20000) {
		t.Fatalf("EVC network failed to drain: inflight=%d", n.InFlight())
	}
	if !n.Quiescent() {
		t.Fatal("EVC network not quiescent")
	}
	if n.Stats.PacketsDelivered != 190 {
		t.Fatalf("delivered %d, want 190", n.Stats.PacketsDelivered)
	}
}

// TestEVCLongHaulLatency: a lone long-haul flow gains from express bypasses
// versus the plain baseline.
func TestEVCLongHaulLatency(t *testing.T) {
	lat := func(express bool) float64 {
		m := topology.NewMesh(8, 8)
		var cfg network.Config
		if express {
			cfg = evcConfig(m)
		} else {
			cfg = network.DefaultConfig(m)
		}
		n := network.New(cfg)
		n.CheckInvariants = true
		w := traffic.NewFlows(traffic.Flow{Src: 0, Dst: 7, Size: 1, Period: 25})
		n.Run(w, 500)
		n.ResetStats()
		n.Run(w, 2000)
		return n.Stats.AvgNetLatency()
	}
	base, express := lat(false), lat(true)
	t.Logf("7-hop row flow: baseline=%.2f evc=%.2f", base, express)
	if express >= base {
		t.Fatalf("EVC latency %.2f not below baseline %.2f on a 7-hop straight path", express, base)
	}
	// Three intermediate bypasses (hops 2-of-2 segments) save ~3 cycles.
	if base-express < 2 {
		t.Errorf("EVC saved only %.2f cycles on a 7-hop path", base-express)
	}
}

// TestEVCShortTrafficUsesNVCs: traffic with <2 hops per dimension never
// allocates EVCs, so no express forwards occur.
func TestEVCShortTrafficUsesNVCs(t *testing.T) {
	m := topology.NewMesh(4, 4)
	cfg := evcConfig(m)
	n := network.New(cfg)
	w := traffic.NewFlows(
		traffic.Flow{Src: 0, Dst: 1, Size: 5, Period: 4},
		traffic.Flow{Src: 5, Dst: 9, Size: 5, Period: 5},
	)
	n.Run(w, 2000)
	var forwards uint64
	for r := 0; r < 16; r++ {
		forwards += n.Router(r).(*evc.Router).ExpressForwards
	}
	if forwards != 0 {
		t.Fatalf("%d express forwards on 1-hop traffic", forwards)
	}
	if n.Stats.PacketsDelivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestEVCPreemption: under load on a shared column, express flits preempt
// pipeline grants (the counter must move) while everything still delivers.
func TestEVCPreemption(t *testing.T) {
	m := topology.NewMesh(8, 8)
	cfg := evcConfig(m)
	n := network.New(cfg)
	n.CheckInvariants = true
	w := traffic.NewSynthetic(traffic.Config{
		Pattern: traffic.UniformRandom, Nodes: 64, Rate: 0.20,
	}, sim.NewRNG(17))
	n.Run(w, 4000)
	var pre uint64
	for r := 0; r < 64; r++ {
		pre += n.Router(r).(*evc.Router).Preemptions
	}
	if pre == 0 {
		t.Error("no preemptions at 0.20 load; express prioritization inactive?")
	}
	if n.Stats.PacketsDelivered < 1000 {
		t.Fatalf("only %d packets delivered", n.Stats.PacketsDelivered)
	}
}

// TestEVCRejectsPseudoOptions: the express policy rides the baseline
// pipeline; a network that asks for pseudo-circuits too, or for an EVC count
// the parity striping cannot split, is refused at build time rather than
// silently running an unsupported combination.
func TestEVCRejectsPseudoOptions(t *testing.T) {
	m := topology.NewMesh(4, 4)
	pseudo, odd := evcConfig(m), evcConfig(m)
	pseudo.Opts = core.DefaultOptions(core.PseudoSB)
	odd.Factory = func(id, in, out int, rcfg *router.Config) network.Node { return evc.New(id, in, out, rcfg, m, 3) }
	for name, cfg := range map[string]network.Config{"pseudo-circuit options": pseudo, "3 EVCs": odd} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("EVC routers accepted %s", name)
				}
			}()
			network.New(cfg)
		}()
	}
}
