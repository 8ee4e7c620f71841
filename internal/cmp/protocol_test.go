package cmp_test

import (
	"testing"

	"pseudocircuit/internal/cmp"
	"pseudocircuit/internal/core"
	"pseudocircuit/internal/fault"
	"pseudocircuit/internal/flit"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
)

// TestProtocolCompletes: with a miss cap, every read and write transaction
// finishes (data/ack received, MSHRs all freed, no dangling invalidations).
func TestProtocolCompletes(t *testing.T) {
	for _, prof := range []string{"fma3d", "specjbb", "radix"} {
		n, w := buildCMP(t, core.PseudoSB, prof)
		w.MaxMisses = 800
		if !n.Drain(w, 500000) {
			t.Fatalf("%s: protocol did not drain (inflight=%d)", prof, n.InFlight())
		}
		if !w.Done() {
			t.Fatalf("%s: workload not done after drain", prof)
		}
	}
}

// TestMSHRSelfThrottling: a core never exceeds its MSHR budget; with a tiny
// budget the cores stall measurably.
func TestMSHRSelfThrottling(t *testing.T) {
	topo := topology.NewCMesh(4, 4, 4)
	cfg := cmp.PaperTableI()
	cfg.MSHRsPerCore = 1
	prof, _ := cmp.ProfileByName("radix")
	n := network.New(network.DefaultConfig(topo))
	w := cmp.New(topo, cfg, prof, sim.NewRNG(3))
	n.Run(w, 5000)
	stalls := uint64(0)
	for _, s := range w.CoreStalls() {
		stalls += s
	}
	if stalls == 0 {
		t.Fatal("no stall cycles with 1 MSHR per core under radix load")
	}
}

// TestHotspotSkewShowsInBanks: specjbb concentrates requests on few banks;
// mgrid spreads them.
func TestHotspotSkewShowsInBanks(t *testing.T) {
	imbalance := func(prof string) float64 {
		n, w := buildCMP(t, core.Baseline, prof)
		cc := &classCounter{inner: w}
		n.Run(cc, 8000)
		cfg := cmp.PaperTableI()
		layout := cmp.NewLayout(topology.NewCMesh(4, 4, 4), cfg)
		var max, total uint64
		for j := 0; j < cfg.L2Banks; j++ {
			r := cc.to[dest{flit.ClassRequest, layout.BankNode(j)}]
			total += r
			if r > max {
				max = r
			}
		}
		if total == 0 {
			t.Fatalf("%s generated no bank requests", prof)
		}
		return float64(max) * float64(cfg.L2Banks) / float64(total)
	}
	jbb := imbalance("specjbb")
	grid := imbalance("mgrid")
	t.Logf("bank imbalance (max/avg): specjbb=%.2f mgrid=%.2f", jbb, grid)
	if jbb <= grid {
		t.Errorf("specjbb (%.2f) not more bank-skewed than mgrid (%.2f)", jbb, grid)
	}
	if jbb < 2 {
		t.Errorf("specjbb imbalance %.2f too mild for a hotspot workload", jbb)
	}
}

// TestLayoutRules: a topology that cannot split into the Table I cores
// and banks is refused, and an interleave of zero blocks is one block.
func TestLayoutRules(t *testing.T) {
	odd := cmp.PaperTableI()
	odd.Cores = 48 - odd.L2Banks // cmesh4x4x3's terminal count, split unevenly per router
	for name, c := range map[string]struct {
		topo topology.Topology
		cfg  cmp.TableI
	}{
		"16 terminals":    {topology.NewMesh(4, 4), cmp.PaperTableI()},
		"concentration 3": {topology.NewCMesh(4, 4, 3), odd},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewLayout did not panic", name)
				}
			}()
			cmp.NewLayout(c.topo, c.cfg)
		}()
	}
	cfg := cmp.PaperTableI()
	cfg.InterleaveBlocks = 0
	if got := cmp.NewLayout(topology.NewCMesh(4, 4, 4), cfg).HomeBank(37); got != 37%cfg.L2Banks {
		t.Errorf("HomeBank(37) with no interleave = %d, want %d", got, 37%cfg.L2Banks)
	}
}

// TestLayoutMapping: cores and banks land on distinct terminals covering
// the whole chip (Fig. 7's 2-core + 2-bank concentration).
func TestLayoutMapping(t *testing.T) {
	topo := topology.NewCMesh(4, 4, 4)
	l := cmp.NewLayout(topo, cmp.PaperTableI())
	seen := map[int]string{}
	for i := 0; i < 32; i++ {
		n := l.CoreNode(i)
		if prev, ok := seen[n]; ok {
			t.Fatalf("core %d collides with %s at node %d", i, prev, n)
		}
		seen[n] = "core"
	}
	for j := 0; j < 32; j++ {
		n := l.BankNode(j)
		if prev, ok := seen[n]; ok {
			t.Fatalf("bank %d collides with %s at node %d", j, prev, n)
		}
		seen[n] = "bank"
	}
	if len(seen) != 64 {
		t.Fatalf("layout covers %d terminals, want 64", len(seen))
	}
	// Each router hosts exactly 2 cores and 2 banks.
	perRouter := map[int][2]int{}
	for n, kind := range seen {
		r := n / 4
		c := perRouter[r]
		if kind == "core" {
			c[0]++
		} else {
			c[1]++
		}
		perRouter[r] = c
	}
	for r, c := range perRouter {
		if c != [2]int{2, 2} {
			t.Fatalf("router %d hosts %v, want [2 cores, 2 banks]", r, c)
		}
	}
}

// TestHomeBankInterleaving: consecutive pages map to different banks and
// all banks are used.
func TestHomeBankInterleaving(t *testing.T) {
	l := cmp.NewLayout(topology.NewCMesh(4, 4, 4), cmp.PaperTableI())
	g := uint64(cmp.PaperTableI().InterleaveBlocks)
	seen := map[int]bool{}
	for page := uint64(0); page < 64; page++ {
		b := l.HomeBank(page * g)
		if b2 := l.HomeBank(page*g + g - 1); b2 != b {
			t.Fatalf("page %d spans banks %d and %d", page, b, b2)
		}
		seen[b] = true
	}
	if len(seen) != 32 {
		t.Fatalf("interleaving uses %d banks, want 32", len(seen))
	}
}

// TestProfilesDistinct: every benchmark profile exists, is distinctly
// parameterized, and produces traffic.
func TestProfilesDistinct(t *testing.T) {
	profs := cmp.Profiles()
	if len(profs) != 11 {
		t.Fatalf("%d profiles, want 11", len(profs))
	}
	names := map[string]bool{}
	for _, p := range profs {
		if names[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		names[p.Name] = true
		if p.IssueProb <= 0 || p.MissRate <= 0 || p.ReadFrac <= 0 || p.ReadFrac > 1 {
			t.Errorf("%s: implausible rates %+v", p.Name, p)
		}
		if p.Suite == "" {
			t.Errorf("%s: missing suite", p.Name)
		}
	}
	if _, ok := cmp.ProfileByName("nope"); ok {
		t.Error("unknown profile resolved")
	}
}

// TestDeterministicTraffic: the workload generates an identical packet
// sequence for a fixed seed.
func TestDeterministicTraffic(t *testing.T) {
	run := func() (uint64, uint64) {
		n, w := buildCMP(t, core.Baseline, "lu")
		n.Run(w, 3000)
		return w.TotalMisses(), n.Stats.PacketsInjected
	}
	m1, p1 := run()
	m2, p2 := run()
	if m1 != m2 || p1 != p2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", m1, p1, m2, p2)
	}
}

// TestSystemStatsReset: ResetSystemStats clears the system-impact
// accumulators so measurement windows are clean.
func TestSystemStatsReset(t *testing.T) {
	n, w := buildCMP(t, core.Baseline, "fma3d")
	n.Run(w, 3000)
	if w.AvgMissLatency() == 0 {
		t.Fatal("no miss latency recorded during warmup")
	}
	w.ResetSystemStats()
	if w.AvgMissLatency() != 0 || w.StallFraction() != 0 {
		t.Fatal("reset did not clear system stats")
	}
	n.Run(w, 3000)
	if w.AvgMissLatency() == 0 {
		t.Fatal("no miss latency recorded after reset")
	}
}

// TestStallFractionBounds: the stall fraction is a fraction.
func TestStallFractionBounds(t *testing.T) {
	n, w := buildCMP(t, core.Baseline, "streamcluster")
	n.Run(w, 5000)
	f := w.StallFraction()
	if f < 0 || f > 1 {
		t.Fatalf("stall fraction %v out of [0,1]", f)
	}
}

// TestDeliveryFailureUnwindsTransactions: under reliable delivery, a bank
// whose router is dead for the whole run never answers, so the network
// abandons the packets to and from it after their retry budget. Each
// abandoned request, response or invalidation leg is unwound by
// DeliveryFailed: the workload still drains, with every MSHR released and
// no write transaction left open, instead of wedging on a reply that cannot
// come.
func TestDeliveryFailureUnwindsTransactions(t *testing.T) {
	topo := topology.NewCMesh(4, 4, 4)
	cfg := cmp.PaperTableI()
	dead, _, _ := topo.NodeRouter(cmp.NewLayout(topo, cfg).BankNode(0))
	ncfg := network.DefaultConfig(topo)
	ncfg.Opts = core.DefaultOptions(core.PseudoSB)
	ncfg.Faults = &fault.Schedule{
		Policy:    fault.Drop,
		AllowOpen: true,
		Events:    []fault.Event{{Cycle: 2000, Kind: fault.RouterDown, Router: dead}},
	}
	ncfg.Reliable = &network.Reliability{Timeout: 64, MaxTimeout: 128, Budget: 3}
	n := network.New(ncfg)
	n.CheckInvariants = true

	// Heavy write sharing of a small block set, so that invalidations and
	// their acks cross the dead router too.
	prof, _ := cmp.ProfileByName("radix")
	prof.SharedFrac, prof.ReadFrac, prof.SharedBlocks = 0.9, 0.5, 64
	w := cmp.New(topo, cfg, prof, sim.NewRNG(31))
	w.MaxMisses = 2000
	// A lost packet is given up Timeout+2·MaxTimeout = 320 cycles after its
	// first send, holding its core's MSHR until then. The run drains in
	// ~8 300 cycles; a wedge would run to the bound.
	const drainBound = 60000
	if !n.Drain(w, drainBound) {
		t.Fatalf("no drain within %d cycles: %d misses issued, %d packets in flight, %d sender records open",
			drainBound, w.TotalMisses(), n.InFlight(), n.RelPending())
	}
	// Done holds only with every core's MSHRs released and no bank
	// transaction open.
	if !w.Done() {
		t.Fatal("drained, but the workload is not done")
	}
	t.Logf("drained at cycle %d, %d packets abandoned", n.Now(), n.Stats.DeliveryFailed)
	if n.Stats.DeliveryFailed == 0 {
		t.Fatal("no packet abandoned with a bank's router dead")
	}
}
