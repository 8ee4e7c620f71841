package pseudocircuit_test

import (
	"runtime/debug"
	"testing"

	"pseudocircuit/noc"
)

// TestBuildAllocsIndependentOfSize: a network is built from one allocation
// per kind of state, not per router. Experiment.Build makes the same number
// of allocations on Mesh(8,8), Mesh(24,24) and CMesh(4,4,4); the EVC mesh
// adds its policy router, one allocation per router, and at most two more.
// The count itself is pinned, so a new kind of state shows up here.
func TestBuildAllocsIndependentOfSize(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector allocates")
	}
	// A collection starting inside a build can allocate on its own account.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(e noc.Experiment) int {
		e.Scheme, e.Routing, e.Policy = noc.PseudoSB, noc.XY, noc.StaticVA
		if e.UseEVC {
			e.Scheme, e.Policy = noc.Baseline, noc.DynamicVA
		}
		return int(testing.AllocsPerRun(20, func() { builtNet = e.Build() }))
	}
	const pinned = 40
	mesh8 := allocs(noc.Experiment{Topology: noc.Mesh(8, 8)})
	if mesh8 != pinned {
		t.Errorf("mesh8x8: Build makes %d allocations, pinned at %d", mesh8, pinned)
	}
	for _, c := range []struct {
		name string
		topo noc.Topology
	}{{"mesh24x24", noc.Mesh(24, 24)}, {"cmesh4x4x4", noc.CMesh(4, 4, 4)}} {
		if got := allocs(noc.Experiment{Topology: c.topo}); got != mesh8 {
			t.Errorf("%s: Build makes %d allocations, mesh8x8 %d", c.name, got, mesh8)
		}
	}
	if got, bound := allocs(noc.Experiment{Topology: noc.Mesh(8, 8), UseEVC: true}), mesh8+64+2; got > bound {
		t.Errorf("EVC mesh8x8: Build makes %d allocations, want at most %d", got, bound)
	}
}
