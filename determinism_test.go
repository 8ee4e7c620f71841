// Golden determinism over the public API: the simulator must produce
// bit-identical results run-to-run. That the active-set kernel is
// indistinguishable from the naive tick-every-router reference loop is
// internal/network's FuzzSpecKernel, over the same public Spec; its
// public-API points are pinned here.
package pseudocircuit_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pseudocircuit/internal/service"
	"pseudocircuit/noc"
)

// TestGoldenDeterminism runs every scheme twice on Mesh(4,4) with
// uniform-random traffic and asserts identical full result structs. Any
// hidden dependence on heap layout, pool state or iteration order shows up
// as a diff here.
func TestGoldenDeterminism(t *testing.T) {
	for _, s := range noc.Schemes {
		s := s
		t.Run(fmt.Sprint(s), func(t *testing.T) {
			t.Parallel()
			run := func() noc.Result {
				e := noc.Experiment{
					Topology: noc.Mesh(4, 4),
					Scheme:   s,
					Routing:  noc.XY,
					Policy:   noc.StaticVA,
					Warmup:   500,
					Measure:  3000,
				}
				return e.RunSynthetic(noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.10})
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%v: same experiment diverged:\nfirst:  %+v\nsecond: %+v", s, a, b)
			}
		})
	}
}

// TestNaiveKernelEquivalence pins the public-API points of FuzzSpecKernel's
// corpus (internal/network/testdata/fuzz/FuzzSpecKernel/public-*), on which
// that fuzz target runs the naive and the active-set schedule: each entry
// must build, through nocd's front door, exactly the noc.Experiment and the
// workload written here — the full scheme with synthetic traffic, the EVC
// comparison router, and the closed-loop CMP substrate, whose idle phases
// exercise router deactivation.
func TestNaiveKernelEquivalence(t *testing.T) {
	base := noc.Experiment{
		Topology: noc.Mesh(4, 4),
		Scheme:   noc.PseudoSB,
		Routing:  noc.XY,
		Policy:   noc.StaticVA,
		Warmup:   500,
		Measure:  3000,
	}
	evc := base
	evc.Scheme, evc.UseEVC = noc.Baseline, true
	cmp := base
	cmp.Topology, cmp.Routing, cmp.Policy = noc.CMesh(4, 4, 4), noc.O1TURN, noc.DynamicVA
	uniform := noc.WorkloadSpec{Pattern: "uniform", Rate: 0.10}
	for _, tc := range []struct {
		name string
		e    noc.Experiment
		w    noc.WorkloadSpec
	}{
		{"synthetic", base, uniform},
		{"evc", evc, uniform},
		{"cmp", cmp, noc.WorkloadSpec{Kind: "cmp", Benchmark: "fma3d"}},
	} {
		raw, err := os.ReadFile(filepath.Join("internal", "network", "testdata", "fuzz", "FuzzSpecKernel", "public-"+tc.name))
		if err != nil {
			t.Error(err)
			continue
		}
		// A corpus file is "go test fuzz v1" and one []byte literal.
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Errorf("public-%s: %v", tc.name, err)
			continue
		}
		req, err := service.DecodeRequest([]byte(data))
		if err != nil {
			t.Errorf("public-%s: %v", tc.name, err)
			continue
		}
		canon, _, e, err := service.Canonicalize(req)
		if err != nil {
			t.Errorf("public-%s: %v", tc.name, err)
			continue
		}
		if !reflect.DeepEqual(e, tc.e) {
			t.Errorf("public-%s builds %+v, want %+v", tc.name, e, tc.e)
		}
		if w, err := tc.w.Normalize(tc.e); err != nil || canon.Workload != w {
			t.Errorf("public-%s runs %+v, want %+v (%v)", tc.name, canon.Workload, w, err)
		}
	}
}
