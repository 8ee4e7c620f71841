package cmp_test

import (
	"testing"

	"pseudocircuit/internal/cmp"
	"pseudocircuit/internal/core"
	"pseudocircuit/internal/flit"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
)

// classCounter wraps a workload to count the packets it injects, by class
// and by class and destination node, while still running the simulation.
type classCounter struct {
	inner network.Workload
	count map[flit.Class]uint64
	to    map[dest]uint64
}

// dest is a packet's class and destination node.
type dest struct {
	class flit.Class
	node  int
}

func (c *classCounter) Tick(now sim.Cycle, inj network.Injector) {
	c.inner.Tick(now, countInjector{c, inj})
}
func (c *classCounter) Deliver(now sim.Cycle, p *flit.Packet) { c.inner.Deliver(now, p) }
func (c *classCounter) Done() bool                            { return c.inner.Done() }

type countInjector struct {
	c   *classCounter
	inj network.Injector
}

func (ci countInjector) Inject(p *flit.Packet) {
	if ci.c.count == nil {
		ci.c.count = map[flit.Class]uint64{}
		ci.c.to = map[dest]uint64{}
	}
	ci.c.count[p.Class]++
	ci.c.to[dest{p.Class, p.Dst}]++
	ci.inj.Inject(p)
}

// toBanks sums the packets of class c sent to L2 banks.
func (c *classCounter) toBanks(layout cmp.Layout, banks int, class flit.Class) uint64 {
	var n uint64
	for j := 0; j < banks; j++ {
		n += c.to[dest{class, layout.BankNode(j)}]
	}
	return n
}

// TestCoherenceMessagesFlow: a write-heavy, high-sharing workload generates
// the paper's three transaction classes, including coherence management
// (invalidations + acks), and their counts are consistent: coherence
// messages come in (inv, ack) pairs.
func TestCoherenceMessagesFlow(t *testing.T) {
	topo := topology.NewCMesh(4, 4, 4)
	cfg := network.DefaultConfig(topo)
	cfg.Opts = core.DefaultOptions(core.Baseline)
	n := network.New(cfg)

	prof, _ := cmp.ProfileByName("radix") // write-heavy (35% writes), shared-heavy
	// Bias further toward shared writes so invalidations are common.
	prof.SharedFrac = 0.9
	prof.ReadFrac = 0.5
	prof.SharedBlocks = 64 // small shared set -> heavy sharing
	prof.Skew = 0

	w := cmp.New(topo, cmp.PaperTableI(), prof, sim.NewRNG(11))
	w.MaxMisses = 4000
	cc := &classCounter{inner: w}
	if !n.Drain(cc, 300000) {
		t.Fatalf("protocol did not drain: inflight=%d", n.InFlight())
	}

	if cc.count[flit.ClassRequest] == 0 || cc.count[flit.ClassResponse] == 0 {
		t.Fatalf("missing request/response traffic: %v", cc.count)
	}
	coh := cc.count[flit.ClassCoherence]
	if coh == 0 {
		t.Fatal("no coherence-management messages despite heavy write sharing")
	}
	if coh%2 != 0 {
		t.Fatalf("coherence messages odd (%d): inv/ack pairing broken", coh)
	}
	// Every request eventually gets exactly one response.
	if cc.count[flit.ClassResponse] != cc.count[flit.ClassRequest] {
		t.Fatalf("requests %d != responses %d",
			cc.count[flit.ClassRequest], cc.count[flit.ClassResponse])
	}
}

// TestWriteInvalidateSemantics: after a write, re-writes by the same core
// to an unshared block trigger no invalidations (the writer is the sole
// sharer), exercised via the coherence counter staying flat.
func TestWriteInvalidateSemantics(t *testing.T) {
	topo := topology.NewCMesh(4, 4, 4)
	n := network.New(network.DefaultConfig(topo))
	prof, _ := cmp.ProfileByName("blackscholes")
	prof.SharedFrac = 0 // private-only: no cross-core sharing at all
	prof.ReadFrac = 0.3
	w := cmp.New(topo, cmp.PaperTableI(), prof, sim.NewRNG(13))
	cc := &classCounter{inner: w}
	n.Run(cc, 10000)
	if cc.count[flit.ClassCoherence] != 0 {
		t.Fatalf("%d coherence messages for private-only traffic", cc.count[flit.ClassCoherence])
	}
	if cc.count[flit.ClassRequest] == 0 {
		t.Fatal("no traffic generated")
	}
}

// TestMissLatencyAccounting: average miss latency is at least the bank
// round trip and responds to the L2 miss rate.
func TestMissLatencyAccounting(t *testing.T) {
	run := func(l2Miss float64) float64 {
		topo := topology.NewCMesh(4, 4, 4)
		n := network.New(network.DefaultConfig(topo))
		prof, _ := cmp.ProfileByName("fma3d")
		prof.L2MissRate = l2Miss
		w := cmp.New(topo, cmp.PaperTableI(), prof, sim.NewRNG(17))
		n.Run(w, 12000)
		return w.AvgMissLatency()
	}
	fast := run(0)
	slow := run(0.5)
	t.Logf("miss latency: l2miss=0 -> %.1f, l2miss=0.5 -> %.1f", fast, slow)
	if fast < 15 {
		t.Errorf("miss latency %.1f below bank+network floor", fast)
	}
	// Half the misses pay +200 cycles of memory latency.
	if slow < fast+60 {
		t.Errorf("memory latency not reflected: %.1f vs %.1f", slow, fast)
	}
}

// TestWriteBackProtocol: the write-back variant completes all transactions,
// generates posted write-backs, and shifts traffic from request to response
// flits versus write-through.
func TestWriteBackProtocol(t *testing.T) {
	topo := topology.NewCMesh(4, 4, 4)
	cfg := cmp.PaperTableI()
	layout := cmp.NewLayout(topo, cfg)
	// Every invalidation a bank sends to a core is acknowledged by one
	// coherence packet back to the bank, so what the banks receive beyond
	// what the cores receive are the posted write-backs.
	writebacks := func(cc *classCounter) uint64 {
		toBanks := cc.toBanks(layout, cfg.L2Banks, flit.ClassCoherence)
		return toBanks - (cc.count[flit.ClassCoherence] - toBanks)
	}
	run := func(p cmp.Protocol) (*classCounter, bool) {
		n := network.New(network.DefaultConfig(topo))
		n.CheckInvariants = true
		prof, _ := cmp.ProfileByName("radix")
		prof.ReadFrac = 0.5
		w := cmp.New(topo, cfg, prof, sim.NewRNG(23))
		w.Protocol = p
		w.MaxMisses = 1500
		cc := &classCounter{inner: w}
		ok := n.Drain(cc, 500000)
		return cc, ok
	}
	wtCC, ok := run(cmp.WriteThrough)
	if !ok {
		t.Fatal("write-through did not drain")
	}
	if writebacks(wtCC) != 0 {
		t.Fatal("write-through produced write-backs")
	}
	wbCC, ok := run(cmp.WriteBack)
	if !ok {
		t.Fatal("write-back did not drain")
	}
	if writebacks(wbCC) == 0 {
		t.Fatal("write-back produced no write-backs")
	}
	// Same misses, different shapes: write-back requests are all 1-flit,
	// write-through write requests are 5-flit.
	if wbCC.count[flit.ClassRequest] != wtCC.count[flit.ClassRequest] {
		t.Fatalf("request counts differ: wb=%d wt=%d",
			wbCC.count[flit.ClassRequest], wtCC.count[flit.ClassRequest])
	}
	if wbCC.count[flit.ClassCoherence] <= wtCC.count[flit.ClassCoherence] {
		t.Fatal("write-back coherence traffic (incl. posted write-backs) should exceed write-through")
	}
}

// TestSchemeRobustToProtocol: the pseudo-circuit scheme wins under both
// protocols (the paper's simplification is not load-bearing).
func TestSchemeRobustToProtocol(t *testing.T) {
	for _, p := range []cmp.Protocol{cmp.WriteThrough, cmp.WriteBack} {
		lat := func(s core.Scheme) float64 {
			topo := topology.NewCMesh(4, 4, 4)
			cfg := network.DefaultConfig(topo)
			cfg.Opts = core.DefaultOptions(s)
			n := network.New(cfg)
			prof, _ := cmp.ProfileByName("lu")
			w := cmp.New(topo, cmp.PaperTableI(), prof, sim.NewRNG(29))
			w.Protocol = p
			n.Run(w, 1000)
			n.ResetStats()
			n.Run(w, 8000)
			return n.Stats.AvgNetLatency()
		}
		base, psb := lat(core.Baseline), lat(core.PseudoSB)
		t.Logf("protocol %d: baseline=%.2f psb=%.2f", p, base, psb)
		if psb >= base {
			t.Errorf("protocol %d: Pseudo+S+B %.2f not below baseline %.2f", p, psb, base)
		}
	}
}
