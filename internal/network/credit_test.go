package network_test

import (
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/evc"
	"pseudocircuit/internal/fault"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/router"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
	"pseudocircuit/internal/vcalloc"
)

// creditKey is one credit at one router output VC in one cycle.
type creditKey struct {
	router, out, vc int
	cycle           sim.Cycle
}

// creditLog records, per credit a router returns to a router upstream, the
// cycle it must reach that router in — one after the cycle it was returned —
// under the part of the cycle that returned it, and every credit that reached
// a router, in the cycle it did.
type creditLog struct {
	n     *network.Network
	feeds map[[2]int][2]int // (router, input port) -> the (router, output port) feeding it

	main, ticking, relaying bool // where in the cycle the kernel is
	due                     map[string]map[creditKey]int
	arrived                 map[creditKey]int
}

// returned is the wrapped router Credit callback.
func (l *creditLog) returned(id, in, vc int) {
	up, ok := l.feeds[[2]int{id, in}]
	if !ok {
		return // an NI feeds the port
	}
	src := "main-phase purge"
	switch {
	case l.relaying:
		src = "EVC relay"
	case l.ticking:
		src = "traverse"
	case !l.main:
		src = "end-of-cycle purge"
	}
	if l.due[src] == nil {
		l.due[src] = map[creditKey]int{}
	}
	l.due[src][creditKey{up[0], up[1], vc, l.n.Now() + 1}]++
}

// creditSpy is the Config.Factory wrapper that feeds a creditLog.
type creditSpy struct {
	*evc.Router
	l *creditLog
}

func (s creditSpy) Tick(now sim.Cycle) bool {
	s.l.ticking = true
	defer func() { s.l.ticking = false }()
	return s.Router.Tick(now)
}

func (s creditSpy) DeliverCredit(out, vc int) bool {
	s.l.arrived[creditKey{s.ID, out, vc, s.l.n.Now()}]++
	s.l.relaying = true
	defer func() { s.l.relaying = false }()
	return s.Router.DeliverCredit(out, vc)
}

// endsMainPhase marks the workload tick, the main phase's last step.
type endsMainPhase struct {
	network.Workload
	l *creditLog
}

func (w endsMainPhase) Tick(now sim.Cycle, inj network.Injector) {
	w.l.main = false
	w.Workload.Tick(now, inj)
}

// TestCreditLatencyIsOneCycle: a credit reaches the router upstream exactly
// one cycle after it was returned, whichever part of the cycle returned it — a
// traversal in a router tick, a fault purge in the main phase (FaultPurge
// returning a purged flit's slot), or an EVC router relaying a credit for an
// express path it only carries. EVC routers on a 4×4 mesh lose router 5 for
// 300 cycles under load, so all three happen. Swapping the credit latch below
// the fault paths would hand the purge's credits over in the cycle that
// returned them.
func TestCreditLatencyIsOneCycle(t *testing.T) {
	m := topology.NewMesh(4, 4)
	l := &creditLog{feeds: map[[2]int][2]int{}, due: map[string]map[creditKey]int{}, arrived: map[creditKey]int{}}
	for r := 0; r < m.Routers(); r++ {
		m.Links(r, func(out int, h topology.Hop) {
			if h.Router >= 0 {
				l.feeds[[2]int{h.Router, h.InPort}] = [2]int{r, out}
			}
		})
	}
	cfg := network.DefaultConfig(m)
	cfg.Opts = core.DefaultOptions(core.Baseline)
	cfg.Policy = vcalloc.Dynamic
	cfg.NIVCLimit = cfg.NumVCs / 2
	cfg.Faults = &fault.Schedule{Policy: fault.Drop, Events: []fault.Event{
		{Cycle: 400, Kind: fault.RouterDown, Router: 5},
		{Cycle: 700, Kind: fault.RouterUp, Router: 5},
	}}
	cfg.Factory = func(id, in, out int, rcfg *router.Config) network.Node {
		if id == 0 {
			credit := rcfg.Credit
			rcfg.Credit = func(id, in, vc int) {
				l.returned(id, in, vc)
				credit(id, in, vc)
			}
		}
		return creditSpy{evc.New(id, in, out, rcfg, m, cfg.NumVCs/2), l}
	}
	l.n = network.New(cfg)
	l.n.CheckInvariants = true
	w := endsMainPhase{traffic.NewSynthetic(traffic.Config{Pattern: traffic.UniformRandom, Nodes: m.Nodes(), Rate: 0.25},
		sim.NewRNG(7)), l}
	for c := 0; c < 1000; c++ {
		l.main = true
		l.n.Step(w)
	}
	if l.n.Stats.PacketsDropped == 0 {
		t.Fatal("the router failure purged nothing")
	}

	for _, src := range []string{"traverse", "main-phase purge", "EVC relay"} {
		if len(l.due[src]) == 0 {
			t.Errorf("no credit returned by a %s reached a router", src)
		}
	}
	want := map[creditKey]int{}
	for src, due := range l.due {
		counted := 0
		for k, c := range due {
			if k.cycle < l.n.Now() {
				want[k] += c
				counted += c
			}
		}
		t.Logf("%s: %d credits", src, counted)
	}
	for k, c := range want {
		if l.arrived[k] < c {
			t.Errorf("router %d output %d VC %d: %d credits due in cycle %d, %d arrived",
				k.router, k.out, k.vc, c, k.cycle, l.arrived[k])
		}
	}
}
