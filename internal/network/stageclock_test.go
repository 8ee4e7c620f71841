package network_test

import (
	"math"
	"runtime/debug"
	"testing"
	"time"

	"pseudocircuit/internal/network"
	"pseudocircuit/internal/router"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
	"pseudocircuit/internal/vcalloc"
)

// TestStageClockChangesNoBit: a network ticks the same bits with the stage
// clock on as off, on both schedules, for the full scheme, the Baseline and
// the EVC policy; and the clock accounts for every phase of every tick it
// timed, entered or skipped.
func TestStageClockChangesNoBit(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	configs := []struct {
		name  string
		cfg   func() network.Config
		pat   traffic.Pattern
		check func(t *testing.T, c *router.StageClock)
	}{
		{"psb", func() network.Config { cfg, _ := allocConfig(topo, false); return cfg }, traffic.UniformRandom,
			func(t *testing.T, c *router.StageClock) {
				if c.Stages[router.StageRide].Entered == 0 || c.Stages[router.StageLatch].Entered != 0 {
					t.Errorf("Pseudo+S+B: ride entered %d, latch entered %d",
						c.Stages[router.StageRide].Entered, c.Stages[router.StageLatch].Entered)
				}
			}},
		{"baseline", func() network.Config {
			cfg := network.DefaultConfig(topo)
			cfg.Policy = vcalloc.Static
			return cfg
		}, traffic.UniformRandom,
			func(t *testing.T, c *router.StageClock) {
				if c.Stages[router.StageRide].Entered != 0 {
					t.Errorf("Baseline rode a circuit in %d ticks", c.Stages[router.StageRide].Entered)
				}
			}},
		{"evc", func() network.Config { cfg, _ := allocConfig(topo, true); return cfg }, traffic.BitComplement,
			func(t *testing.T, c *router.StageClock) {
				if c.Stages[router.StageLatch].Entered == 0 {
					t.Error("the EVC policy never latched")
				}
			}},
	}
	for _, tc := range configs {
		for _, k := range kernels {
			t.Run(tc.name+"/"+k.name, func(t *testing.T) {
				run := func(clock *router.StageClock) *network.Network {
					cfg := tc.cfg()
					cfg.Algorithm = routing.XY
					cfg.Naive = k.naive
					cfg.Stages = clock
					n := network.New(cfg)
					n.CheckInvariants = true
					w := traffic.NewSynthetic(traffic.Config{Pattern: tc.pat, Nodes: topo.Nodes(), Rate: 0.12}, sim.NewRNG(3))
					n.Run(w, 300)
					n.ResetStats()
					n.Run(w, 1200)
					return n
				}
				clock := new(router.StageClock)
				sameRun(t, "clock off", "clock on", run(nil), run(clock))
				if clock.Ticks == 0 {
					t.Fatal("the clock timed no tick")
				}
				for s, b := range clock.Stages {
					if b.Entered+b.Skipped != clock.Ticks {
						t.Errorf("stage %v: entered %d + skipped %d, want every one of %d ticks",
							router.Stage(s), b.Entered, b.Skipped, clock.Ticks)
					}
					if b.Entered > 0 && b.NS <= 0 {
						t.Errorf("stage %v entered %d times in %d ns", router.Stage(s), b.Entered, b.NS)
					}
				}
				for _, s := range []router.Stage{router.StageST, router.StagePCMaint, router.StageArrivals} {
					if b := clock.Stages[s]; b.Skipped != 0 {
						t.Errorf("stage %v, which every tick runs, skipped %d times", s, b.Skipped)
					}
				}
				tc.check(t, clock)
			})
		}
	}
}

// timedRouter times each Tick of the router it wraps from outside.
type timedRouter struct {
	network.Node
	ns *int64
}

func (r timedRouter) Tick(now sim.Cycle) bool {
	start := time.Now()
	again := r.Node.Tick(now)
	*r.ns += int64(time.Since(start))
	return again
}

// idleNode is a router with nothing to do: it prices timedRouter's own
// clock pair.
type idleNode struct{ network.Node }

func (idleNode) Tick(sim.Cycle) bool { return false }

// TestStageClockLedger: the buckets account for the tick. Each router of a
// busy Pseudo+S+B mesh is also timed from outside its Tick; the buckets plus
// what the clocks cost that the buckets do not hold (the outside pair, and
// the one read per tick that opens the first bucket) come within 5 % of the
// outside figure on a quiet host. Time lands in both or in neither, so a
// trial misses only by what lands between them. The best of up to five
// trials is logged against that 5 %; the test fails only on a miss past
// 25 %, which a lost or double-counted phase makes and a noisy host does not.
func TestStageClockLedger(t *testing.T) {
	const target, gross = 0.05, 0.25
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	topo := topology.NewMesh(8, 8)
	var ns int64
	var idle network.Node = timedRouter{idleNode{}, &ns}
	pairNS := func() float64 { // timedRouter's cost around an empty Tick
		best := math.Inf(1)
		for rep := 0; rep < 8; rep++ {
			ns = 0
			const calls = 4096
			for i := 0; i < calls; i++ {
				idle.Tick(0)
			}
			best = min(best, float64(ns)/calls)
		}
		return best
	}
	best := math.Inf(1)
	for trial := 0; trial < 5; trial++ {
		cfg, pat := allocConfig(topo, false)
		clock := new(router.StageClock)
		cfg.Stages = clock
		var outside int64
		cfg.Factory = func(id, in, out int, rcfg *router.Config) network.Node {
			return timedRouter{router.New(id, in, out, rcfg), &outside}
		}
		n := network.New(cfg)
		w := traffic.NewSynthetic(traffic.Config{Pattern: pat, Nodes: topo.Nodes(), Rate: 0.10}, sim.NewRNG(uint64(trial)+1))
		n.Run(w, 500)
		pair, read := pairNS(), router.ClockReadNS() // the host's clock cost drifts: price it per trial
		// The pair is two reads and a call.
		if read < pair/8 {
			t.Fatalf("a clock read costs %.2f ns beside a %.1f ns pair: ClockReadNS times no read", read, pair)
		}
		*clock, outside = router.StageClock{}, 0
		n.Run(w, 1000)
		var buckets int64
		for _, b := range clock.Stages {
			buckets += b.NS
		}
		ledger := float64(buckets) + float64(clock.Ticks)*(pair+read)
		off := math.Abs(ledger-float64(outside)) / float64(outside)
		t.Logf("trial %d: %d ticks, outside %.1f ns/tick, buckets %.1f, clock pair %.1f, read %.1f: off by %.1f %%",
			trial, clock.Ticks, float64(outside)/float64(clock.Ticks), float64(buckets)/float64(clock.Ticks), pair, read, 100*off)
		if best = min(best, off); best <= target {
			break
		}
	}
	t.Logf("best trial off by %.1f %% (target %.0f %%)", 100*best, 100*target)
	if best > gross {
		t.Errorf("the buckets plus the clocks' cost miss the outside figure by %.1f %% at best, want at most %.0f %%", 100*best, 100*gross)
	}
}
