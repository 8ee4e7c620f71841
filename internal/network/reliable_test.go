package network_test

import (
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/fault"
	"pseudocircuit/internal/flit"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
	"pseudocircuit/internal/vcalloc"
)

// buildReliable builds a Pseudo+S+B 4×4 mesh with the reliability layer on,
// the given kernel and fault schedule, invariant checking enabled. The short
// timeout forces retransmissions soon after a loss instead of waiting out the
// default round-trip margin.
func buildReliable(k kernel, sched *fault.Schedule) *network.Network {
	cfg := network.DefaultConfig(topology.NewMesh(4, 4))
	cfg.Opts = core.DefaultOptions(core.PseudoSB)
	cfg.Algorithm = routing.XY
	cfg.Policy = vcalloc.Static
	cfg.Naive = k.naive
	cfg.Faults = sched
	cfg.Reliable = &network.Reliability{Timeout: 64, MaxTimeout: 256, Budget: 8}
	n := network.New(cfg)
	n.CheckInvariants = true
	return n
}

// responses hands the network every packet of its workload as a
// ClassResponse carrying responseMeta, and counts the packets delivered as
// any other class or without that Meta, and the ones the network reports
// abandoned.
type responses struct {
	network.Workload
	wrongClass, failed int
}

const responseMeta = "response"

type responseInjector struct{ network.Injector }

func (i responseInjector) Inject(p *flit.Packet) {
	p.Class, p.Meta = flit.ClassResponse, responseMeta
	i.Injector.Inject(p)
}

func (w *responses) Tick(now sim.Cycle, inj network.Injector) {
	w.Workload.Tick(now, responseInjector{inj})
}

func (w *responses) Deliver(now sim.Cycle, p *flit.Packet) {
	if p.Class != flit.ClassResponse || p.Meta != responseMeta {
		w.wrongClass++
	}
	w.Workload.Deliver(now, p)
}

func (w *responses) DeliveryFailed(sim.Cycle, int, int, flit.Class, any) { w.failed++ }

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
			n := buildReliable(k, sched)
			// One doomed flow into the dead corner router, one healthy flow
			// that must be unaffected.
			w := &responses{Workload: traffic.NewFlows(
				traffic.Flow{Src: 0, Dst: 15, Size: 5, Period: 20, Start: 0, Count: 20},
				traffic.Flow{Src: 1, Dst: 2, Size: 5, Period: 20, Start: 3, Count: 20},
			)}
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
			if uint64(w.failed) != n.Stats.DeliveryFailed {
				t.Errorf("the workload heard of %d abandoned packets; the network counted %d", w.failed, n.Stats.DeliveryFailed)
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
