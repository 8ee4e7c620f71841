package network_test

import (
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

// buildFaulted builds a 4×4 mesh network with the given scheme, kernel and
// fault schedule, invariant checking on. useEVC swaps in the EVC comparison
// router (scheme must be Baseline).
func buildFaulted(scheme core.Scheme, k kernel, sched *fault.Schedule, useEVC bool) *network.Network {
	m := topology.NewMesh(4, 4)
	cfg := network.DefaultConfig(m)
	cfg.Opts = core.DefaultOptions(scheme)
	cfg.Algorithm = routing.XY
	cfg.Policy = vcalloc.Static
	cfg.Naive = k.naive
	cfg.Faults = sched
	if useEVC {
		installEVC(&cfg, m)
	}
	n := network.New(cfg)
	n.CheckInvariants = true
	return n
}

// faultGrid is one faulted determinism grid point: a scheme/router pairing
// and a schedule whose storms land inside the measured window.
type faultGrid struct {
	name   string
	scheme core.Scheme
	evc    bool
	rate   float64
	sched  fault.Schedule
}

// On the 4×4 mesh router 5 (x=1, y=1) is interior: every direction port is
// wired, so both its east link and the whole router are legal fault targets.
var faultGrids = []faultGrid{
	{
		// Loaded enough that the link is busy when it dies, so the reroute
		// policy has committed heads to salvage.
		name:   "psb/link-reroute",
		scheme: core.PseudoSB,
		rate:   0.30,
		sched: fault.Schedule{
			Policy: fault.Reroute,
			Events: []fault.Event{
				{Cycle: 700, Kind: fault.LinkDown, Router: 5, Port: 0},
				{Cycle: 1600, Kind: fault.LinkUp, Router: 5, Port: 0},
			},
		},
	},
	{
		name:   "psb/router-drop",
		scheme: core.PseudoSB,
		sched: fault.Schedule{
			Policy: fault.Drop,
			Events: []fault.Event{
				{Cycle: 800, Kind: fault.RouterDown, Router: 5},
				{Cycle: 1700, Kind: fault.RouterUp, Router: 5},
			},
		},
	},
	{
		name:   "baseline/multi-reroute",
		scheme: core.Baseline,
		sched: fault.Schedule{
			Policy: fault.Reroute,
			Events: []fault.Event{
				{Cycle: 650, Kind: fault.LinkDown, Router: 5, Port: 0},
				{Cycle: 900, Kind: fault.RouterDown, Router: 10},
				{Cycle: 1500, Kind: fault.LinkUp, Router: 5, Port: 0},
				{Cycle: 1900, Kind: fault.RouterUp, Router: 10},
			},
		},
	},
	{
		name:   "evc/link-drop",
		scheme: core.Baseline,
		evc:    true,
		sched: fault.Schedule{
			Policy: fault.Drop,
			Events: []fault.Event{
				{Cycle: 700, Kind: fault.LinkDown, Router: 5, Port: 0},
				{Cycle: 1600, Kind: fault.LinkUp, Router: 5, Port: 0},
			},
		},
	},
}

// runFaulted executes the determinism harness protocol (warmup, stats
// reset, measured window) on a faulted grid point under kernel k.
func runFaulted(g faultGrid, k kernel) *network.Network {
	n := buildFaulted(g.scheme, k, &g.sched, g.evc)
	rate := g.rate
	if rate == 0 {
		rate = 0.10
	}
	w := traffic.NewSynthetic(traffic.Config{
		Pattern: traffic.UniformRandom, Nodes: 16, Rate: rate,
	}, sim.NewRNG(42))
	n.Run(w, 500)
	n.ResetStats()
	n.Run(w, 2500)
	return n
}

// TestFaultedDeterminismTriangle extends the determinism harness to faulted
// runs: for each scheme × schedule grid point, the naive reference and the
// active-set kernel must produce bit-identical statistics and energy counters
// while links and routers go down and come back mid-run.
func TestFaultedDeterminismTriangle(t *testing.T) {
	for _, g := range faultGrids {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			ref := runFaulted(g, kernels[0])
			if ref.Stats.FaultEvents != uint64(len(g.sched.Events)) {
				t.Fatalf("reference run applied %d fault events, want %d",
					ref.Stats.FaultEvents, len(g.sched.Events))
			}
			if ref.Stats.PacketsDropped+ref.Stats.PacketsRerouted == 0 {
				t.Error("schedule caused no drops and no reroutes; grid point exercises nothing")
			}
			for _, k := range kernels[1:] {
				got := runFaulted(g, k)
				sameRun(t, kernels[0].name, k.name, ref, got)
			}
		})
	}
}

// TestEmptyFaultScheduleBitIdentical pins the zero-cost contract: a nil
// schedule and an empty one build byte-for-byte the same run.
func TestEmptyFaultScheduleBitIdentical(t *testing.T) {
	run := func(sched *fault.Schedule) *network.Network {
		n := buildFaulted(core.PseudoSB, kernel{}, sched, false)
		w := traffic.NewSynthetic(traffic.Config{
			Pattern: traffic.UniformRandom, Nodes: 16, Rate: 0.10,
		}, sim.NewRNG(42))
		n.Run(w, 2000)
		return n
	}
	ref := run(nil)
	got := run(&fault.Schedule{Policy: fault.Reroute})
	sameRun(t, "nil schedule", "empty schedule", ref, got)
	if got.Stats.FaultEvents != 0 {
		t.Errorf("empty schedule applied %d events", got.Stats.FaultEvents)
	}
}

// TestFaultReroutePolicySalvages compares the two storm policies on the same
// schedule: Reroute must salvage packets Drop would kill, and Drop must
// never report a reroute. Salvage needs a head that has committed an output
// VC but not yet traversed at the storm instant — a one-cycle window in this
// microarchitecture (speculation sends heads the cycle they allocate) — so
// the scenario is engineered for it: dynamic VA lets a second head commit
// while another packet streams through the same output port, three flows
// converge on router 1's south output, and the schedule storms that link
// repeatedly. Everything is deterministic (flows, no RNG), so the window is
// hit reproducibly.
func TestFaultReroutePolicySalvages(t *testing.T) {
	run := func(p fault.Policy) *network.Network {
		cfg := network.DefaultConfig(topology.NewMesh(4, 4))
		cfg.Opts = core.DefaultOptions(core.PseudoSB)
		cfg.Algorithm = routing.XY
		cfg.Policy = vcalloc.Dynamic
		sched := &fault.Schedule{Policy: p}
		for i := 0; i < 10; i++ {
			base := int64(300 + 100*i)
			sched.Events = append(sched.Events,
				fault.Event{Cycle: base, Kind: fault.LinkDown, Router: 1, Port: 3},
				fault.Event{Cycle: base + 50, Kind: fault.LinkUp, Router: 1, Port: 3},
			)
		}
		cfg.Faults = sched
		n := network.New(cfg)
		n.CheckInvariants = true
		// 2.5× oversubscription of the south link keeps its output port
		// contended through every storm; the flow count is sized so the
		// backlog drains before the stale sweep's post-recovery grace
		// period ends, keeping slow-but-moving packets out of its reach.
		w := traffic.NewFlows(
			traffic.Flow{Src: 0, Dst: 13, Size: 5, Period: 6, Start: 0, Count: 120},
			traffic.Flow{Src: 3, Dst: 13, Size: 5, Period: 6, Start: 1, Count: 120},
			traffic.Flow{Src: 1, Dst: 13, Size: 5, Period: 6, Start: 2, Count: 120},
		)
		if !n.Drain(w, 30000) {
			t.Fatalf("policy %v: network failed to drain", p)
		}
		if got := n.Stats.PacketsDelivered + n.Stats.PacketsDropped; got != 360 {
			t.Fatalf("policy %v: %d packets accounted for, want 360", p, got)
		}
		return n
	}
	drop, rer := run(fault.Drop), run(fault.Reroute)
	if drop.Stats.PacketsRerouted != 0 {
		t.Errorf("drop policy rerouted %d packets", drop.Stats.PacketsRerouted)
	}
	if drop.Stats.PacketsDropped == 0 {
		t.Error("drop policy dropped nothing; schedule too mild to compare policies")
	}
	if rer.Stats.PacketsRerouted == 0 {
		t.Error("reroute policy salvaged nothing")
	}
	if rer.Stats.PacketsDropped >= drop.Stats.PacketsDropped {
		t.Errorf("reroute policy dropped %d packets, not below drop policy's %d",
			rer.Stats.PacketsDropped, drop.Stats.PacketsDropped)
	}
}

// TestFaultedDrainTerminates is the stranded-flit regression: bounded flows
// cross a router that dies mid-stream, and the network must still drain —
// every in-flight flit either delivers, detours, or is purged by the fault
// storm; nothing wedges waiting for a credit that died with the router.
func TestFaultedDrainTerminates(t *testing.T) {
	for _, k := range kernels {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			sched := &fault.Schedule{
				Policy: fault.Reroute,
				Events: []fault.Event{
					{Cycle: 150, Kind: fault.RouterDown, Router: 5},
					{Cycle: 5000, Kind: fault.RouterUp, Router: 5},
				},
			}
			n := buildFaulted(core.PseudoSB, k, sched, false)
			// Flows chosen to cross router 5 (x=1, y=1) under XY routing in
			// both dimensions, still injecting while it dies.
			w := traffic.NewFlows(
				traffic.Flow{Src: 0, Dst: 15, Size: 5, Period: 7, Start: 0, Count: 60},
				traffic.Flow{Src: 4, Dst: 7, Size: 5, Period: 11, Start: 3, Count: 40},
				traffic.Flow{Src: 1, Dst: 13, Size: 1, Period: 5, Start: 1, Count: 80},
			)
			// The horizon is the standstill watchdog's bound. Router 5 comes
			// back at cycle 5000; the watchdog waits while it is down, then
			// purges a fabric that has not moved for stallLimit (1024)
			// cycles, so a wedge left from the outage is gone by 6024. The
			// slack of 176 cycles covers the packets still queued at the
			// sources, which drain by 6078. Without the watchdog only the
			// stale sweep breaks the wedge, and the drain ends at 7156.
			const horizon = 5000 + 1024 + 176
			if !n.Drain(w, horizon) {
				t.Fatalf("network failed to drain within %d cycles", horizon)
			}
			done := n.Stats.PacketsDelivered + n.Stats.PacketsDropped
			if want := uint64(60 + 40 + 80); done != want {
				t.Errorf("delivered %d + dropped %d = %d packets, want %d accounted for",
					n.Stats.PacketsDelivered, n.Stats.PacketsDropped, done, want)
			}
		})
	}
}
