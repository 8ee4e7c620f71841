package network_test

import (
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/evc"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/router"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
	"pseudocircuit/internal/vcalloc"
)

// tickLedger counts, per router, the Tick calls the kernel makes and how many
// of them met a router that held nothing: no staged arrival, no buffered
// flit, no owned lane, no grant to execute.
type tickLedger []struct{ calls, idle int }

func (l tickLedger) total() (calls, idle int) {
	for _, c := range l {
		calls, idle = calls+c.calls, idle+c.idle
	}
	return
}

// countedNode is the Config.Factory wrapper behind a tickLedger.
type countedNode struct {
	network.Node
	c *struct{ calls, idle int }
}

func (n countedNode) Tick(now sim.Cycle) bool {
	n.c.calls++
	if n.Node.Quiescent() {
		n.c.idle++
	}
	return n.Node.Tick(now)
}

// counted wraps cfg's factory (nil: the standard router) so every Tick is
// entered in the returned ledger.
func counted(cfg *network.Config) tickLedger {
	l := make(tickLedger, cfg.Topo.Routers())
	inner := cfg.Factory
	if inner == nil {
		inner = func(id, in, out int, rcfg *router.Config) network.Node { return router.New(id, in, out, rcfg) }
	}
	cfg.Factory = func(id, in, out int, rcfg *router.Config) network.Node {
		return countedNode{inner(id, in, out, rcfg), &l[id]}
	}
	return l
}

// TestTicksFollowFlits pins what the active-set kernel asks of the routers,
// as counts that repeat exactly.
//
// A lone 5-flit Baseline packet crossing six routers in a row costs each of
// them the nine cycles it holds a part of the packet — five flits a cycle
// apart, the two further stages of the last, and the two-cycle credit stall a
// Baseline packet pays on unit links (EXPERIMENTS.md "Fig. 6") — and not one
// more: no tick is spent on a router that holds nothing (a credit coming back
// to a router the tail has left schedules nothing, and a traversal leaves a
// baseline router nothing to settle). PR 24 made 70
// calls here, 16 of them on a router holding nothing.
//
// The same packet under Pseudo+S+B, on a cold network, costs eight: its body
// flits ride the circuit the header left (BW | PC+ST), which shortens the
// credit round trip and the stall by a cycle; the last router ejects without
// credit and holds the packet seven. Again not one more: no output of this
// flow ever runs dry (five flits against sixteen credits), so HeldMask & dry
// is empty throughout, no credit asks for a tick and no traversal leaves one
// owing. PR 25 made 68 calls here, 21 of them on a router holding nothing.
//
// The three repository-benchmark points are job 0 of `bench/run.sh --seed 1`
// (seed 2), built as noc.Experiment.Build builds them. Their PR 24 counts,
// read with this wrapper: 221 208, 402 895 and 529 251. The sparse Baseline
// mesh loses a fifth of its ticks or more; the EVC mesh, whose routers relay
// most credits and were woken by each, loses some; the pseudo-circuit mesh
// kept every one until its routers recorded which outputs are dry, and now
// loses the 14.3 % that were a credit to a port with credit left or the tick
// after a traversal that settled nothing.
func TestTicksFollowFlits(t *testing.T) {
	t.Run("lone-flow", func(t *testing.T) {
		const hops = 6
		for _, tc := range []struct {
			scheme core.Scheme
			each   int // Tick calls per router on the path
			last   int // and on the last, which ejects
		}{{core.Baseline, 9, 9}, {core.PseudoSB, 8, 7}} {
			cfg := network.DefaultConfig(topology.NewMesh(hops, hops))
			cfg.Opts = core.DefaultOptions(tc.scheme)
			l := counted(&cfg)
			n := network.New(cfg)
			n.CheckInvariants = true
			p := n.NewPacket()
			p.Src, p.Dst, p.Size = 0, hops-1, 5
			n.Inject(p)
			if !n.Drain(nil, 200) {
				t.Fatalf("%v: lone packet did not drain", tc.scheme)
			}
			n.Run(nil, 20) // the last credits come home after the tail is out
			if _, idle := l.total(); idle != 0 {
				t.Errorf("%v: %d Tick calls on a router holding nothing; want 0", tc.scheme, idle)
			}
			for r, c := range l {
				want := 0
				switch {
				case r < hops-1:
					want = tc.each
				case r == hops-1:
					want = tc.last
				}
				if c.calls != want {
					t.Errorf("%v: router %d ticked %d times; want %d (the path is routers 0..%d)",
						tc.scheme, r, c.calls, want, hops-1)
				}
			}
		}
	})

	// The naive reference ticks every router every cycle, past the first
	// word of its index too: it is the schedule the active set is held to.
	t.Run("naive", func(t *testing.T) {
		cfg := network.DefaultConfig(topology.NewMesh(9, 9))
		cfg.Naive = true
		l := counted(&cfg)
		network.New(cfg).Run(nil, 3)
		for r, c := range l {
			if c.calls != 3 {
				t.Fatalf("the naive reference ticked router %d %d times in 3 cycles; want 3", r, c.calls)
			}
		}
	})

	mesh8, mesh24 := topology.NewMesh(8, 8), topology.NewMesh(24, 24)
	for _, tc := range []struct {
		name            string
		cfg             network.Config
		pattern         traffic.Pattern
		rate            float64
		warmup, measure int
		ok              func(calls int) bool
		want            string
	}{
		{
			name:    "mesh24-ur-sparse",
			cfg:     network.Config{Topo: mesh24, Policy: vcalloc.Static, Opts: core.DefaultOptions(core.Baseline)},
			pattern: traffic.UniformRandom, rate: 0.002, warmup: 500, measure: 4500,
			ok:   func(calls int) bool { return 10*calls <= 8*221208 },
			want: "at most 0.8 x 221208",
		},
		{
			name: "mesh8-bc-evc",
			cfg: network.Config{Topo: mesh8, Policy: vcalloc.Dynamic, Opts: core.DefaultOptions(core.Baseline), NIVCLimit: 2,
				Factory: func(id, in, out int, rcfg *router.Config) network.Node {
					return evc.New(id, in, out, rcfg, mesh8, 2)
				}},
			pattern: traffic.BitComplement, rate: 0.10, warmup: 1000, measure: 6000,
			ok:   func(calls int) bool { return calls < 402895 },
			want: "fewer than 402895",
		},
		{
			name:    "mesh8-ur-psb",
			cfg:     network.Config{Topo: mesh8, Policy: vcalloc.Static, Opts: core.DefaultOptions(core.PseudoSB)},
			pattern: traffic.UniformRandom, rate: 0.10, warmup: 1000, measure: 10000,
			ok:   func(calls int) bool { return calls == 453508 && 100*calls <= 87*529251 },
			want: "exactly 453508, at most 0.87 x 529251",
		},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const seed = 2
			cfg := tc.cfg
			cfg.NumVCs, cfg.BufDepth, cfg.Seed = 4, 4, seed
			l := counted(&cfg)
			n := network.New(cfg)
			w := traffic.NewSynthetic(traffic.Config{Pattern: tc.pattern, Nodes: cfg.Topo.Nodes(), Rate: tc.rate},
				sim.NewRNG(seed^0xABCD))
			n.Run(w, tc.warmup)
			n.ResetStats()
			n.Run(w, tc.measure)
			if calls, _ := l.total(); !tc.ok(calls) {
				t.Errorf("%d Tick calls over %d cycles; want %s", calls, tc.warmup+tc.measure, tc.want)
			} else {
				t.Logf("%d Tick calls over %d cycles", calls, tc.warmup+tc.measure)
			}
		})
	}
}
