package network_test

import (
	"reflect"
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/fault"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
	"pseudocircuit/internal/vcalloc"
)

// buildReliable builds a 4×4 mesh with the reliability layer on, the given
// kernel and an expanded fault schedule, invariant checking enabled. The
// short timeout forces retransmissions inside the measured window instead of
// waiting out the default round-trip margin.
func buildReliable(scheme core.Scheme, k kernel, sched *fault.Schedule, useEVC bool) *network.Network {
	m := topology.NewMesh(4, 4)
	cfg := network.DefaultConfig(m)
	cfg.Opts = core.DefaultOptions(scheme)
	cfg.Algorithm = routing.XY
	cfg.Policy = vcalloc.Static
	cfg.Naive = k.naive
	cfg.Faults = sched
	cfg.Reliable = &network.Reliability{Timeout: 64, MaxTimeout: 256, Budget: 8}
	if useEVC {
		installEVC(&cfg, m)
	}
	n := network.New(cfg)
	n.CheckInvariants = true
	return n
}

// relGrid is one churn-and-reliability determinism grid point: a scheme (or
// the EVC comparison router) under a seeded churn process. The schedule is
// expanded once per grid point so every kernel replays the identical fault
// trace.
type relGrid struct {
	name   string
	scheme core.Scheme
	evc    bool
	churn  fault.Churn
}

var relGrids = []relGrid{
	{
		name:   "psb/seed1-drop",
		scheme: core.PseudoSB,
		churn: fault.Churn{
			Seed: 1, LinkFail: 3e-4, LinkRepair: 0.01,
			RouterFail: 2e-5, RouterRepair: 0.01, Policy: fault.Drop,
		},
	},
	{
		name:   "psb/seed2-reroute",
		scheme: core.PseudoSB,
		churn: fault.Churn{
			Seed: 2, LinkFail: 3e-4, LinkRepair: 0.01,
			RouterFail: 2e-5, RouterRepair: 0.01, Policy: fault.Reroute,
		},
	},
	{
		name:   "pseudo/seed3-drop",
		scheme: core.Pseudo,
		churn: fault.Churn{
			Seed: 3, LinkFail: 3e-4, LinkRepair: 0.01, Policy: fault.Drop,
		},
	},
	{
		name:   "evc/seed1-drop",
		scheme: core.Baseline,
		evc:    true,
		churn: fault.Churn{
			Seed: 1, LinkFail: 3e-4, LinkRepair: 0.01, Policy: fault.Drop,
		},
	},
}

// runReliable executes the determinism harness protocol (warmup, stats reset,
// measured window) on a churned reliable grid point under kernel k.
func runReliable(g relGrid, sched *fault.Schedule, k kernel) *network.Network {
	n := buildReliable(g.scheme, k, sched, g.evc)
	w := traffic.NewSynthetic(traffic.Config{
		Pattern: traffic.UniformRandom, Nodes: 16, Rate: 0.10,
	}, sim.NewRNG(42))
	n.Run(w, 500)
	n.ResetStats()
	n.Run(w, 2500)
	return n
}

// TestReliableChurnDeterminismTriangle closes the acceptance loop for the
// reliability layer: with a fixed-seed churn process expanded into a fault
// schedule and end-to-end reliable delivery on, the naive reference and the
// active-set kernel must produce bit-identical statistics — including the
// retransmit, ack, dedup and failure counters — on every scheme × churn grid
// point.
func TestReliableChurnDeterminismTriangle(t *testing.T) {
	m := topology.NewMesh(4, 4)
	for _, g := range relGrids {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			sched, err := g.churn.Expand(m, 3000)
			if err != nil {
				t.Fatalf("expanding churn: %v", err)
			}
			if len(sched.Events) == 0 {
				t.Fatal("churn expanded to zero events; grid point exercises nothing")
			}
			ref := runReliable(g, sched, kernels[0])
			if ref.Stats.PacketsRetransmitted == 0 {
				t.Error("churn caused no retransmissions; grid point exercises nothing")
			}
			if ref.Stats.AcksReceived == 0 {
				t.Error("no acks made it back; reliability layer inert")
			}
			for _, k := range kernels[1:] {
				got := runReliable(g, sched, k)
				sameRun(t, kernels[0].name, k.name, ref, got)
			}
		})
	}
}

// TestReliableChurnSeedsDiverge is the sanity inverse of the triangle: two
// different churn seeds must not replay the same fault trace (if they did,
// the multi-seed grid above would be testing one schedule twice).
func TestReliableChurnSeedsDiverge(t *testing.T) {
	m := topology.NewMesh(4, 4)
	base := fault.Churn{Seed: 1, LinkFail: 3e-4, LinkRepair: 0.01, Policy: fault.Drop}
	other := base
	other.Seed = 2
	a, err := base.Expand(m, 3000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := other.Expand(m, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, b.Events) {
		t.Error("seeds 1 and 2 expanded to identical schedules")
	}
}

// TestReliableBudgetExhaustionTerminates pins the no-livelock contract: a
// destination router that dies and never comes back (an open schedule, as
// churn produces when a chain is still down at the horizon) must not wedge
// the drain. Every packet aimed at it burns its retry budget and is abandoned
// as a counted DeliveryFailed; healthy flows deliver normally; the drain
// completes with no unresolved sender records.
func TestReliableBudgetExhaustionTerminates(t *testing.T) {
	for _, k := range kernels {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			sched := &fault.Schedule{
				Policy:    fault.Drop,
				AllowOpen: true,
				Events: []fault.Event{
					{Cycle: 50, Kind: fault.RouterDown, Router: 15},
				},
			}
			n := buildReliable(core.PseudoSB, k, sched, false)
			// One doomed flow into the dead corner router, one healthy flow
			// that must be unaffected.
			w := traffic.NewFlows(
				traffic.Flow{Src: 0, Dst: 15, Size: 5, Period: 20, Start: 0, Count: 20},
				traffic.Flow{Src: 1, Dst: 2, Size: 5, Period: 20, Start: 3, Count: 20},
			)
			if !n.Drain(w, 30000) {
				t.Fatalf("network failed to drain within 30000 cycles (RelPending=%d)", n.RelPending())
			}
			if n.RelPending() != 0 {
				t.Errorf("drain returned with %d unresolved sender records", n.RelPending())
			}
			if n.Stats.DeliveryFailed == 0 {
				t.Error("no packet was abandoned despite a permanently dead destination")
			}
			if n.Stats.DeliveryFailed > 20 {
				t.Errorf("abandoned %d packets, only 20 were doomed", n.Stats.DeliveryFailed)
			}
			if n.Stats.PacketsDelivered < 20 {
				t.Errorf("healthy flow delivered %d packets, want at least its 20", n.Stats.PacketsDelivered)
			}
			if n.Stats.PacketsRetransmitted == 0 {
				t.Error("budget exhaustion happened without a single retransmission")
			}
		})
	}
}

// TestReliableSteadyStateZeroAlloc extends the zero-alloc bound to reliable
// runs: sequence stamping, ack injection, dedup-window updates and sender
// record bookkeeping must all reach an allocation-free steady state.
func TestReliableSteadyStateZeroAlloc(t *testing.T) {
	// One leg, under the name the test floor knows it by.
	t.Run("workers=0", func(t *testing.T) {
		topo := topology.NewMesh(8, 8)
		cfg := network.DefaultConfig(topo)
		cfg.Opts = core.DefaultOptions(core.PseudoSB)
		cfg.Algorithm = routing.XY
		cfg.Policy = vcalloc.Static
		cfg.Reliable = &network.Reliability{}
		n := network.New(cfg)
		w := traffic.NewSynthetic(traffic.Config{
			Pattern: traffic.UniformRandom, Nodes: topo.Nodes(), Rate: 0.10,
		}, sim.NewRNG(7))

		n.Run(w, 2000)
		n.ResetStats()
		n.Run(w, 2000)
		if n.Stats.AcksReceived == 0 {
			t.Fatal("no acks flowed; reliability layer inert")
		}

		const stepsPerRun = 100
		var avg float64
		for trial := 0; trial < 8; trial++ {
			avg = testing.AllocsPerRun(20, func() {
				for i := 0; i < stepsPerRun; i++ {
					n.Step(w)
				}
			})
			if avg == 0 {
				return
			}
		}
		t.Errorf("reliable steady-state Step still allocates: %.2f allocs per %d steps (want 0)", avg, stepsPerRun)
	})
}
