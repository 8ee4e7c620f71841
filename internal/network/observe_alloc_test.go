package network_test

import (
	"bytes"
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/fault"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/obs"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/stats"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
	"pseudocircuit/internal/vcalloc"
)

// TestObservedSteadyStateZeroAlloc is TestSteadyStateZeroAlloc with every
// observability probe enabled: a windowed series (which sums the router rows
// at every window close) and the lifecycle tracer (small enough to wrap).
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
// zero-alloc test: the storm lands (and may allocate — storms are rare by
// construction) during warmup, and the measured steady-state loop must then
// stay allocation-free — the per-cycle fault cost is one event-cycle
// comparison plus the watchdog's counter check and the stale sweep's guard,
// none of which may touch the heap.
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
