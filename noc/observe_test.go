package noc_test

import (
	"bytes"
	"testing"

	"pseudocircuit/internal/obs"
	"pseudocircuit/noc"
)

func observedExperiment(o noc.Observe) noc.Experiment {
	return noc.Experiment{
		Topology: noc.Mesh(8, 8),
		Scheme:   noc.PseudoSB,
		Routing:  noc.XY,
		Policy:   noc.StaticVA,
		Warmup:   500,
		Measure:  3000,
		Observe:  o,
	}
}

// observedEVC is the EVC comparison router at the repository benchmark's
// mesh8-bc-evc operating point: the express policy rides the same pipeline,
// so every probe must see it like any other router.
func observedEVC(o noc.Observe) noc.Experiment {
	e := observedExperiment(o)
	e.Scheme, e.Policy, e.UseEVC = noc.Baseline, noc.DynamicVA, true
	return e
}

func runObserved(e noc.Experiment) (*noc.Network, noc.Result) {
	n := e.Build()
	syn := noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.10}
	if e.UseEVC {
		syn.Pattern = noc.BitComplement
	}
	res := e.RunOn(n, e.SyntheticWorkload(syn))
	return n, res
}

// observedLegs runs a probe test on the pseudo-circuit router and on EVC.
func observedLegs(t *testing.T, fn func(t *testing.T, mk func(noc.Observe) noc.Experiment)) {
	t.Run("psb", func(t *testing.T) { fn(t, observedExperiment) })
	t.Run("evc", func(t *testing.T) { fn(t, observedEVC) })
}

// The figures a run reports are the routers' rows added up and nothing else:
// every router has a row, the rows saw the traffic, and noc.Result's
// router-derived fields are exactly the totals' — on the pseudo-circuit
// router and on the EVC policy alike.
func TestRegistryAggregationMatchesGlobal(t *testing.T) {
	observedLegs(t, testRegistryAggregation)
}

func testRegistryAggregation(t *testing.T, mk func(noc.Observe) noc.Experiment) {
	e := mk(noc.Observe{})
	n, res := runObserved(e)
	tot, m := n.Registry().Totals(), n.Energy()
	if len(n.Registry().Routers()) != 64 {
		t.Fatalf("%d router rows, want 64", len(n.Registry().Routers()))
	}
	if tot.Traversals == 0 || tot.SAGrants == 0 || tot.BufWrites == 0 || (tot.PCReused == 0) != e.UseEVC {
		t.Errorf("rows recorded %d traversals, %d grants, %d buffer writes, %d reuses; counters not wired?",
			tot.Traversals, tot.SAGrants, tot.BufWrites, tot.PCReused)
	}
	if res.Reusability != tot.Reusability() || res.BypassRate != tot.BypassRate() || res.XbarLocality != tot.XbarLocality() {
		t.Errorf("Result reports reuse %v bypass %v xbar %v; the rows sum to %v %v %v",
			res.Reusability, res.BypassRate, res.XbarLocality, tot.Reusability(), tot.BypassRate(), tot.XbarLocality())
	}
	if m.Traversals != tot.Traversals || m.Arbitrations != tot.SAGrants || m.Writes != tot.BufWrites || m.Reads != tot.BufReads ||
		res.EnergyPJ != m.Total() {
		t.Errorf("energy meter %+v (total %v) is not the rows' sum %+v priced (Result: %v pJ)", m, m.Total(), tot, res.EnergyPJ)
	}
	// A flit that traverses leaves through exactly one output port.
	var sends uint64
	for _, r := range n.Registry().Routers() {
		for _, c := range r.OutSends {
			sends += c
		}
	}
	if sends != tot.Traversals {
		t.Errorf("OutSends sum to %d, port traversals to %d", sends, tot.Traversals)
	}
}

// Probes are observation-only: enabling all of them must not change any
// measurement.
func TestObservabilityNoBehaviorChange(t *testing.T) {
	observedLegs(t, func(t *testing.T, mk func(noc.Observe) noc.Experiment) {
		_, base := runObserved(mk(noc.Observe{}))
		_, full := runObserved(mk(noc.Observe{Window: 250, Trace: true, TraceCap: 1 << 12, Stages: true}))
		if base != full {
			t.Errorf("observability changed results:\noff: %+v\non:  %+v", base, full)
		}
	})
}

// The windowed series must cover warmup and measurement, with window sums
// matching the global measured counters after the rebase.
func TestSeriesCoversRun(t *testing.T) {
	e := observedExperiment(noc.Observe{Window: 250})
	n, res := runObserved(e)
	samples := n.Series().Samples()
	if len(samples) == 0 {
		t.Fatal("no windows recorded")
	}
	var measuredFlits uint64
	for i, s := range samples {
		if s.To <= s.From {
			t.Fatalf("window %d empty: [%d,%d)", i, s.From, s.To)
		}
		if i > 0 && s.From != samples[i-1].To {
			t.Fatalf("window %d not contiguous: starts %d, previous ends %d", i, s.From, samples[i-1].To)
		}
		if int64(s.From) >= int64(e.Warmup) {
			measuredFlits += s.FlitsDelivered
		}
	}
	if first := samples[0]; first.From != 0 {
		t.Errorf("series starts at %d, want 0 (must span warmup)", first.From)
	}
	if measuredFlits != res.FlitsDelivered {
		t.Errorf("measured-window flit sum %d != result %d", measuredFlits, res.FlitsDelivered)
	}
}

// End to end: exports produced from a live run validate against their own
// schemas, including the metrics cross-check of router sums vs global.
func TestObservedExportsEndToEnd(t *testing.T) {
	observedLegs(t, testObservedExports)
}

func testObservedExports(t *testing.T, mk func(noc.Observe) noc.Experiment) {
	n, _ := runObserved(mk(noc.Observe{Window: 500, Trace: true}))

	var metrics bytes.Buffer
	if err := noc.WriteMetricsJSONL(&metrics, n); err != nil {
		t.Fatal(err)
	}
	if lines, err := noc.ValidateMetricsJSONL(bytes.NewReader(metrics.Bytes())); err != nil {
		t.Errorf("metrics export invalid: %v", err)
	} else if lines < 64+1 {
		t.Errorf("metrics export has %d lines, want >= 65", lines)
	}

	tr := n.Tracer()
	if tr.Len() == 0 {
		t.Fatal("tracer recorded nothing")
	}
	var events bytes.Buffer
	if err := tr.WriteJSONL(&events); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateEventsJSONL(bytes.NewReader(events.Bytes())); err != nil {
		t.Errorf("event export invalid: %v", err)
	}
	for _, kind := range []obs.Kind{obs.BufWrite, obs.SAGrant, obs.Traverse} {
		if !bytes.Contains(events.Bytes(), []byte(`"ev":"`+kind.String()+`"`)) {
			t.Errorf("event export has no %v event: routers not traced?", kind)
		}
	}
	var chrome bytes.Buffer
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChromeTrace(bytes.NewReader(chrome.Bytes())); err != nil {
		t.Errorf("chrome trace invalid: %v", err)
	}
}
