package noc_test

import (
	"testing"

	"pseudocircuit/noc"
)

func TestDefaultsApplied(t *testing.T) {
	exp := noc.Experiment{Topology: noc.Mesh(4, 4), Scheme: noc.Baseline}
	n := exp.Build()
	if n.Nodes() != 16 {
		t.Fatalf("nodes = %d", n.Nodes())
	}
}

func TestRunSyntheticBasic(t *testing.T) {
	exp := noc.Experiment{
		Topology: noc.Mesh(4, 4),
		Scheme:   noc.PseudoSB,
		Routing:  noc.XY,
		Policy:   noc.StaticVA,
		Warmup:   200,
		Measure:  1500,
	}
	res := exp.RunSynthetic(noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.1})
	if res.PacketsDelivered == 0 || res.AvgLatency <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Reusability <= 0 {
		t.Error("no reuse under Pseudo+S+B")
	}
	if res.EnergyPJ <= 0 || res.CrossbarPJ <= res.ArbiterPJ {
		t.Error("implausible energy breakdown")
	}
}

func TestRunCMPUnknownBenchmark(t *testing.T) {
	exp := noc.Experiment{Topology: noc.CMesh(4, 4, 4), Scheme: noc.Baseline}
	if _, err := exp.RunCMP("not-a-benchmark"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestCMPBenchmarksList(t *testing.T) {
	names := noc.CMPBenchmarks()
	if len(names) != 11 {
		t.Fatalf("%d benchmarks, want 11", len(names))
	}
	for _, n := range names {
		exp := noc.Experiment{Topology: noc.CMesh(4, 4, 4), Scheme: noc.Baseline}
		if _, err := exp.CMPWorkload(n); err != nil {
			t.Errorf("benchmark %s: %v", n, err)
		}
	}
}

func TestEVCValidation(t *testing.T) {
	t.Run("scheme", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("EVC with pseudo scheme accepted")
			}
		}()
		noc.Experiment{Topology: noc.Mesh(4, 4), Scheme: noc.PseudoSB, UseEVC: true}.Build()
	})
	t.Run("topology", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("EVC on MECS accepted")
			}
		}()
		noc.Experiment{Topology: noc.MECS(4, 4, 4), Scheme: noc.Baseline, UseEVC: true}.Build()
	})
}

// TestSchemeOrderingSynthetic: the paper's headline ordering at moderate
// uniform load: every scheme at least matches baseline; Pseudo+S+B is the
// best of the aggressive schemes or within noise of Pseudo+B.
func TestSchemeOrderingSynthetic(t *testing.T) {
	lat := make(map[string]float64)
	for _, s := range noc.Schemes {
		exp := noc.Experiment{
			Topology: noc.Mesh(8, 8),
			Scheme:   s,
			Routing:  noc.XY,
			Policy:   noc.StaticVA,
			Warmup:   500,
			Measure:  4000,
		}
		lat[s.String()] = exp.RunSynthetic(noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.10}).AvgLatency
	}
	t.Logf("latencies: %v", lat)
	base := lat["Baseline"]
	for name, l := range lat {
		if name == "Baseline" {
			continue
		}
		if l >= base {
			t.Errorf("%s latency %.2f not below baseline %.2f", name, l, base)
		}
	}
	if lat["Pseudo+B"] >= lat["Pseudo"] {
		t.Errorf("buffer bypassing did not improve on plain pseudo-circuit")
	}
}
