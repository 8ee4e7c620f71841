package network_test

import (
	"math"
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/fault"
	"pseudocircuit/internal/flit"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/stats"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
	"pseudocircuit/internal/vcalloc"
	"pseudocircuit/noc"
	"pseudocircuit/nocdclient"
)

// buildFaulted builds a 4×4 mesh network with the given scheme, kernel and
// fault schedule, invariant checking on.
func buildFaulted(scheme core.Scheme, k kernel, sched *fault.Schedule) *network.Network {
	cfg := network.DefaultConfig(topology.NewMesh(4, 4))
	cfg.Opts = core.DefaultOptions(scheme)
	cfg.Algorithm = routing.XY
	cfg.Policy = vcalloc.Static
	cfg.Naive = k.naive
	cfg.Faults = sched
	n := network.New(cfg)
	n.CheckInvariants = true
	return n
}

// TestFaultedDeterminismTriangle pins the fault-* entries of FuzzSpecKernel's
// corpus, which compares the two schedules while links and routers go down
// and come back mid-window: storms on a 4×4 mesh (router 5 is interior, so
// its east link and the router itself are legal targets). One active-set run
// of each must apply every event and drop or reroute some packet.
func TestFaultedDeterminismTriangle(t *testing.T) {
	pinFaulted(t, []faultedPin{
		// Loaded enough that the link is busy when it dies.
		{sub: "psb/link-reroute", entry: "fault-psb-link-reroute", topo: "mesh4x4", scheme: pseudoSB, va: "static", seed: 42, measure: 2500, rate: 0.30,
			faults: &noc.FaultSpec{Drop: "reroute", Events: []noc.FaultEventSpec{
				faultEv(700, "link-down", 5), faultEv(1600, "link-up", 5)}}, check: dropsOrReroutes},
		{sub: "psb/router-drop", entry: "fault-psb-router-drop", topo: "mesh4x4", scheme: pseudoSB, va: "static", seed: 42, measure: 2500, rate: 0.10,
			faults: &noc.FaultSpec{Events: []noc.FaultEventSpec{
				faultEv(800, "router-down", 5), faultEv(1700, "router-up", 5)}}, check: dropsOrReroutes},
		{sub: "baseline/multi-reroute", entry: "fault-baseline-multi-reroute", topo: "mesh4x4", scheme: "baseline", va: "static", seed: 42, measure: 2500, rate: 0.10,
			faults: &noc.FaultSpec{Drop: "reroute", Events: []noc.FaultEventSpec{
				faultEv(650, "link-down", 5), faultEv(900, "router-down", 10), faultEv(1500, "link-up", 5), faultEv(1900, "router-up", 10)}},
			check: dropsOrReroutes},
		// Seed 43: on seed 42's traffic no packet meets the dead link.
		{sub: "evc/link-drop", entry: "fault-evc-link-drop", topo: "mesh4x4", scheme: "evc", va: "static", seed: 43, measure: 2500, rate: 0.10,
			faults: &noc.FaultSpec{Events: []noc.FaultEventSpec{
				faultEv(700, "link-down", 5), faultEv(1600, "link-up", 5)}}, check: dropsOrReroutes},
	})
}

// TestReliableChurnDeterminismTriangle pins the reliable-* entries: seeded
// churn under reliable delivery with a short timeout. One active-set run of
// each, its packets sent as responses, must see fault events,
// retransmissions, acks and deduplicated copies, and deliver every packet
// with the class and Meta it was sent with.
func TestReliableChurnDeterminismTriangle(t *testing.T) {
	pinFaulted(t, []faultedPin{
		{sub: "psb/seed1-drop", entry: "reliable-psb-seed1-drop", topo: "mesh4x4", scheme: pseudoSB, va: "static", seed: 42, measure: 2500, rate: 0.10,
			churn: gridChurn(1, 2e-5, 0.01, ""), reliable: true, check: retransmits},
		{sub: "psb/seed2-reroute", entry: "reliable-psb-seed2-reroute", topo: "mesh4x4", scheme: pseudoSB, va: "static", seed: 42, measure: 2500, rate: 0.10,
			churn: gridChurn(2, 2e-5, 0.01, "reroute"), reliable: true, check: retransmits},
		{sub: "pseudo/seed3-drop", entry: "reliable-pseudo-seed3-drop", topo: "mesh4x4", scheme: "pseudo", va: "static", seed: 42, measure: 2500, rate: 0.10,
			churn: gridChurn(3, 0, 0, ""), reliable: true, check: retransmits},
		{sub: "evc/seed1-drop", entry: "reliable-evc-seed1-drop", topo: "mesh4x4", scheme: "evc", va: "static", seed: 42, measure: 2500, rate: 0.10,
			churn: gridChurn(1, 0, 0, ""), reliable: true, check: retransmits},
	})
}

// TestWorkIndexesOffWordBoundaries pins the entries on a 9×9 mesh, whose 81
// routers and NIs leave each word-packed index a full word and a 17-bit tail
// that setAll (the naive reference, and wakeAll on every fault event) must
// mask: a sparse run (mesh9-psb-sparse), storms that drop packets
// (mesh9-psb-faulted) and reliable churn that retransmits
// (mesh9-psb-reliable). The faulted runs purge packets out of source queues
// and router buffers without telling the indexes.
func TestWorkIndexesOffWordBoundaries(t *testing.T) {
	t.Run("sparse", func(t *testing.T) {
		corpusHolds(t, "mesh9-psb-sparse", nocdclient.Request{
			Spec: noc.Spec{Topology: "mesh9x9", Scheme: pseudoSB, Routing: "xy", VA: "dynamic",
				Seed: 42, Warmup: 500, Measure: 2500},
			Workload: noc.WorkloadSpec{Pattern: "uniform", Rate: 0.01},
		})
	})
	pinFaulted(t, []faultedPin{
		// Router 40 is the centre: all four ports wired.
		{sub: "faulted", entry: "mesh9-psb-faulted", topo: "mesh9x9", scheme: pseudoSB, va: "dynamic", seed: 42, measure: 2500, rate: 0.30,
			faults: &noc.FaultSpec{Drop: "reroute", Events: []noc.FaultEventSpec{
				faultEv(650, "link-down", 40), faultEv(900, "router-down", 30), faultEv(1500, "link-up", 40), faultEv(1900, "router-up", 30)}},
			check: dropsPackets},
		{sub: "reliable", entry: "mesh9-psb-reliable", topo: "mesh9x9", scheme: pseudoSB, va: "dynamic", seed: 42, measure: 2500, rate: 0.10,
			churn: gridChurn(1, 2e-5, 0.01, ""), reliable: true, check: retransmits},
	})
}

// TestFaultedDrainEntries pins the entries FuzzSpecKernel drains: the
// drain-* entries, cut-off-routers-drain and evc-express-after-link-up (an
// express flit that an up event once turned at the router it bypasses),
// each 1 000 cycles of churn. FuzzSpecKernel's drain, on both schedules, is
// their check; the pin holds them within the drain's bounds.
func TestFaultedDrainEntries(t *testing.T) {
	pinFaulted(t, []faultedPin{
		{sub: "drain-psb-link-reroute", topo: "mesh4x4", scheme: pseudoSB, va: "static", seed: 1, measure: 500, rate: 0.15,
			churn: drainChurn(1, 5e-4, 0, "reroute")},
		{sub: "drain-psb-router-drop-reliable", topo: "mesh4x4", scheme: pseudoSB, va: "static", seed: 2, measure: 500, rate: 0.15,
			churn: drainChurn(2, 0, 1e-4, ""), reliable: true},
		{sub: "drain-baseline-multi-reroute", topo: "mesh4x4", scheme: "baseline", va: "static", seed: 3, measure: 500, rate: 0.15,
			churn: drainChurn(3, 5e-4, 1e-4, "reroute")},
		{sub: "drain-evc-link-drop-reliable", topo: "mesh4x4", scheme: "evc", va: "static", seed: 4, measure: 500, rate: 0.15,
			churn: drainChurn(4, 5e-4, 0, ""), reliable: true},
		{sub: "cut-off-routers-drain", topo: "mesh4x4", scheme: "evc", va: "static", seed: 1, measure: 500, rate: 0.15,
			churn: drainChurn(1, math.Mod(38.9995, 1), 0, ""), reliable: true},
		// Spec seed 61, churn seed 34: on spec seed 34's traffic no express
		// flit meets an up event after its header committed.
		{sub: "evc-express-after-link-up", topo: "mesh4x4", scheme: "evc", va: "static", seed: 61, measure: 500, rate: 0.15,
			churn: drainChurn(34, 5e-4, 0, "")},
	})
}

const pseudoSB = "pseudo+s+b"

// faultedPin is a faulted or churned FuzzSpecKernel corpus entry under the
// subtest name of the point it replaced: the request it holds (uniform
// traffic under XY routing, 500 cycles of warmup) and what one active-set
// run of it must show in its measured window.
type faultedPin struct {
	sub, entry   string // the pin's subtest; the corpus entry, if not sub
	topo, scheme string // scheme "evc": the EVC router on Baseline
	va           string
	seed         uint64
	measure      int
	rate         float64
	faults       *noc.FaultSpec
	churn        *noc.ChurnSpec
	reliable     bool                                 // reliable delivery with a 64-cycle timeout
	check        func(t *testing.T, s *stats.Network) // nil: FuzzSpecKernel's drain is the check
}

// faultEv is a fault event on router's east link (port 0) or on router.
func faultEv(cycle int64, kind string, router int) noc.FaultEventSpec {
	return noc.FaultEventSpec{Cycle: cycle, Kind: kind, Router: router}
}

// gridChurn is the triangles' churn; a link-only one repairs no router.
func gridChurn(seed uint64, routerFail, routerRepair float64, drop string) *noc.ChurnSpec {
	return &noc.ChurnSpec{Seed: seed, LinkFail: 3e-4, LinkRepair: 0.01,
		RouterFail: routerFail, RouterRepair: routerRepair, Drop: drop}
}

// drainChurn is the drain entries' churn; every repair probability is 0.01.
func drainChurn(seed uint64, linkFail, routerFail float64, drop string) *noc.ChurnSpec {
	return &noc.ChurnSpec{Seed: seed, LinkFail: linkFail, LinkRepair: 0.01,
		RouterFail: routerFail, RouterRepair: 0.01, Drop: drop}
}

func dropsOrReroutes(t *testing.T, s *stats.Network) {
	if s.PacketsDropped+s.PacketsRerouted == 0 {
		t.Error("no drops and no reroutes: the entry exercises no fault")
	}
}

func dropsPackets(t *testing.T, s *stats.Network) {
	if s.PacketsDropped == 0 {
		t.Error("dropped nothing: the entry leaves no index bit stale")
	}
}

func retransmits(t *testing.T, s *stats.Network) {
	if s.FaultEvents == 0 || s.PacketsRetransmitted == 0 || s.AcksReceived == 0 || s.DuplicatesDropped == 0 {
		t.Errorf("%d fault events, %d retransmissions, %d acks received, %d duplicates dropped: want all four",
			s.FaultEvents, s.PacketsRetransmitted, s.AcksReceived, s.DuplicatesDropped)
	}
}

// pinFaulted runs each pin as a subtest of t. Its entry must hold its
// request (corpusHolds). A pin with a check runs the request once on the
// active-set schedule, a reliable one with its packets sent as responses,
// which must come back as responses; a pin without one must be drained by
// FuzzSpecKernel.
func pinFaulted(t *testing.T, pins []faultedPin) {
	for _, p := range pins {
		req := nocdclient.Request{
			Spec: noc.Spec{Topology: p.topo, Scheme: p.scheme, Routing: "xy", VA: p.va,
				Seed: p.seed, Warmup: 500, Measure: p.measure, Faults: p.faults, Churn: p.churn},
			Workload: noc.WorkloadSpec{Pattern: "uniform", Rate: p.rate},
		}
		if p.scheme == "evc" {
			req.Scheme, req.UseEVC = "baseline", true
		}
		if p.reliable {
			req.Reliable = &noc.ReliableSpec{Timeout: 64, MaxTimeout: 256, Budget: 8}
		}
		entry := p.entry
		if entry == "" {
			entry = p.sub
		}
		t.Run(p.sub, func(t *testing.T) {
			t.Parallel()
			drain := corpusHolds(t, entry, req)
			if p.check == nil {
				if !drain {
					t.Errorf("%s: FuzzSpecKernel does not drain it", entry)
				}
				return
			}
			e, n, w := specNet(t, req, kernels[1])
			var rw *responses
			if p.reliable {
				rw = &responses{Workload: w}
				w = rw
			}
			e.RunOn(n, w)
			if p.faults != nil && n.Stats.FaultEvents != uint64(len(p.faults.Events)) {
				t.Errorf("applied %d fault events, want %d", n.Stats.FaultEvents, len(p.faults.Events))
			}
			p.check(t, n.Stats)
			if rw != nil && rw.wrongClass != 0 {
				t.Errorf("%d packets delivered without the class or Meta they were sent with", rw.wrongClass)
			}
		})
	}
}

// TestEmptyFaultScheduleBitIdentical pins the zero-cost contract: a nil
// schedule and an empty one build byte-for-byte the same run.
func TestEmptyFaultScheduleBitIdentical(t *testing.T) {
	run := func(sched *fault.Schedule) *network.Network {
		n := buildFaulted(core.PseudoSB, kernel{}, sched)
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
			n := buildFaulted(core.PseudoSB, k, sched)
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
	// A flit mid-link dies with its link in the storm's cycle, not after
	// the repair: a one-flit packet from node 5 is on its injection link
	// in cycle 1, and one from node 3 on router 1's link into router 0 in
	// cycle 12.
	for _, c := range []struct {
		name     string
		src, dst int
		down, up fault.Event
	}{
		{"injection link", 5, 7, fault.Event{Cycle: 1, Kind: fault.RouterDown, Router: 5},
			fault.Event{Cycle: 40, Kind: fault.RouterUp, Router: 5}},
		{"link into router 0", 3, 0, fault.Event{Cycle: 12, Kind: fault.LinkDown, Router: 1, Port: topology.PortW},
			fault.Event{Cycle: 40, Kind: fault.LinkUp, Router: 1, Port: topology.PortW}},
	} {
		n := buildFaulted(core.Baseline, kernel{}, &fault.Schedule{Events: []fault.Event{c.down, c.up}})
		n.Inject(&flit.Packet{Src: c.src, Dst: c.dst, Size: 1})
		for n.Now() <= sim.Cycle(c.down.Cycle) {
			n.Step(nil)
		}
		if n.Stats.PacketsDropped != 1 {
			t.Errorf("%s: %d packets dropped by the storm, want 1", c.name, n.Stats.PacketsDropped)
		}
	}
}
