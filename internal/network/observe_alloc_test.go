package network_test

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/fault"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/obs"
	"pseudocircuit/internal/router"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/stats"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
	"pseudocircuit/internal/vcalloc"
)

// TestObservedSteadyStateZeroAlloc is TestSteadyStateZeroAlloc with every
// observability probe enabled: a windowed series (which sums the router rows
// at every window close), the lifecycle tracer (small enough to wrap) and the
// router stage clock.
// Probes write into preallocated storage, so the Step path must stay
// allocation-free even while observing.
func TestObservedSteadyStateZeroAlloc(t *testing.T) {
	t.Run("psb", func(t *testing.T) { observedSteadyStateZeroAlloc(t, false) })
	t.Run("evc", func(t *testing.T) { observedSteadyStateZeroAlloc(t, true) })
}

func observedSteadyStateZeroAlloc(t *testing.T, useEVC bool) {
	topo := topology.NewMesh(8, 8)
	cfg, pattern := allocConfig(topo, useEVC)
	cfg.Series = stats.NewSeries(100, 8) // ring wraps during the run
	cfg.Tracer = obs.NewTracer(1 << 10)  // ring wraps during the run
	cfg.Stages = new(router.StageClock)
	n := network.New(cfg)
	w := traffic.NewSynthetic(traffic.Config{
		Pattern: pattern, Nodes: topo.Nodes(), Rate: 0.10,
	}, sim.NewRNG(7))

	n.Run(w, 2000)
	n.ResetStats()
	n.Run(w, 2000)
	if n.Tracer().Dropped() == 0 {
		t.Fatal("tracer ring never wrapped; shrink the capacity so the test covers eviction")
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
	t.Errorf("observed Step still allocates after warmup: %.2f allocs per %d steps (want 0)", avg, stepsPerRun)
}

// TestFaultedSteadyStateZeroAlloc adds a fault schedule to the observed
// zero-alloc test: the storm lands during warmup, and the measured
// steady-state loop must then stay allocation-free — the per-cycle fault cost
// is one event-cycle comparison plus the watchdog's counter check and the
// stale sweep's guard, none of which may touch the heap. (A storm cycle
// allocates nothing either, once warm: TestFaultPlaneAllocs.)
func TestFaultedSteadyStateZeroAlloc(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	cfg := network.DefaultConfig(topo)
	cfg.Opts = core.DefaultOptions(core.PseudoSB)
	cfg.Algorithm = routing.XY
	cfg.Policy = vcalloc.Static
	cfg.Series = stats.NewSeries(100, 8)
	cfg.Tracer = obs.NewTracer(1 << 10)
	cfg.Faults = &fault.Schedule{
		Policy: fault.Reroute,
		Events: []fault.Event{
			{Cycle: 500, Kind: fault.LinkDown, Router: 27, Port: 0},
			{Cycle: 900, Kind: fault.LinkUp, Router: 27, Port: 0},
		},
	}
	n := network.New(cfg)
	w := traffic.NewSynthetic(traffic.Config{
		Pattern: traffic.UniformRandom, Nodes: topo.Nodes(), Rate: 0.10,
	}, sim.NewRNG(7))

	n.Run(w, 2000)
	n.ResetStats()
	n.Run(w, 2000)

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
	t.Errorf("faulted Step still allocates after warmup: %.2f allocs per %d steps (want 0)", avg, stepsPerRun)
}

// TestFaultedExportsValidate runs a faulted, traced run and holds both
// export formats to their strict validators: the streams must decode
// cleanly with the fault transitions present among the events.
func TestFaultedExportsValidate(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	cfg := network.DefaultConfig(topo)
	cfg.Opts = core.DefaultOptions(core.PseudoSB)
	cfg.Algorithm = routing.XY
	cfg.Policy = vcalloc.Static
	cfg.Tracer = obs.NewTracer(1 << 16) // large enough to retain the storm
	cfg.Faults = &fault.Schedule{
		Policy: fault.Reroute,
		Events: []fault.Event{
			{Cycle: 600, Kind: fault.RouterDown, Router: 5},
			{Cycle: 900, Kind: fault.RouterUp, Router: 5},
		},
	}
	n := network.New(cfg)
	w := traffic.NewSynthetic(traffic.Config{
		Pattern: traffic.UniformRandom, Nodes: topo.Nodes(), Rate: 0.10,
	}, sim.NewRNG(7))
	n.Run(w, 1200)

	var jsonl bytes.Buffer
	if err := n.Tracer().WriteJSONL(&jsonl); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	for _, kind := range []string{`"ev":"router-down"`, `"ev":"router-up"`, `"ev":"drop"`} {
		if !bytes.Contains(jsonl.Bytes(), []byte(kind)) {
			t.Errorf("JSONL export missing %s event", kind)
		}
	}
	if _, err := obs.ValidateEventsJSONL(bytes.NewReader(jsonl.Bytes())); err != nil {
		t.Errorf("faulted JSONL export fails validation: %v", err)
	}

	var chrome bytes.Buffer
	if err := n.Tracer().WriteChromeTrace(&chrome); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !bytes.Contains(chrome.Bytes(), []byte("router-down")) {
		t.Error("Chrome trace missing router-down event")
	}
	if _, err := obs.ValidateChromeTrace(bytes.NewReader(chrome.Bytes())); err != nil {
		t.Errorf("faulted Chrome trace fails validation: %v", err)
	}
}

// TestFaultPlaneAllocs pins what the fault plane allocates. A faulted New
// makes the same number of allocations on Mesh(8,8) and Mesh(16,16): the
// fault view is one table per kind, not a closure per router. And a storm
// cycle that purges packets allocates nothing, under either policy: the scan
// asks the view and hands every router the same hoisted callbacks. The first
// of four storms grows the victim list and the pool's free lists; each later
// one is measured.
func TestFaultPlaneAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	config := func(k int, pol fault.Policy) network.Config {
		cfg := network.DefaultConfig(topology.NewMesh(k, k))
		cfg.Opts = core.DefaultOptions(core.PseudoSB)
		cfg.Faults = &fault.Schedule{Policy: pol}
		for i := int64(0); i < 4; i++ {
			at := 600 + 400*i
			cfg.Faults.Events = append(cfg.Faults.Events,
				fault.Event{Cycle: at, Kind: fault.RouterDown, Router: 27},
				fault.Event{Cycle: at + 200, Kind: fault.RouterUp, Router: 27})
		}
		return cfg
	}
	t.Run("build", func(t *testing.T) {
		allocs := func(k int) float64 {
			cfg := config(k, fault.Drop)
			return testing.AllocsPerRun(5, func() { network.New(cfg) })
		}
		if a8, a16 := allocs(8), allocs(16); a8 != a16 {
			t.Errorf("a faulted New makes %.0f allocations on Mesh(8,8) and %.0f on Mesh(16,16)", a8, a16)
		}
	})
	for _, pol := range []fault.Policy{fault.Drop, fault.Reroute} {
		t.Run("storm/"+pol.String(), func(t *testing.T) {
			cfg := config(8, pol)
			n := network.New(cfg)
			w := traffic.NewSynthetic(traffic.Config{
				Pattern: traffic.UniformRandom, Nodes: cfg.Topo.Nodes(), Rate: 0.2,
			}, sim.NewRNG(7))
			var before, after runtime.MemStats
			for i, e := range cfg.Faults.Events {
				if !e.Kind.IsDown() {
					continue
				}
				n.Run(w, int(e.Cycle)-int(n.Now()))
				dropped := n.Stats.PacketsDropped
				runtime.ReadMemStats(&before)
				n.Step(w)
				runtime.ReadMemStats(&after)
				if n.Stats.PacketsDropped == dropped {
					t.Fatalf("the storm at cycle %d purged no packet; the test exercises nothing", e.Cycle)
				}
				if allocs := after.Mallocs - before.Mallocs; i > 0 && allocs != 0 {
					t.Errorf("the storm at cycle %d allocated %d objects, want 0", e.Cycle, allocs)
				}
			}
		})
	}
}
