package evc_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"pseudocircuit/internal/evc"
	"pseudocircuit/noc"
)

// goldenPoint is one pinned EVC run: the experiment, its workload, and the
// values it produced on the commit before EVC moved onto the shared router
// pipeline (hash of the JSON noc.Result, plus the two EVC-only counters
// summed over every router, which Result does not carry).
type goldenPoint struct {
	name     string
	exp      noc.Experiment
	syn      noc.Synthetic
	cmp      string // CMP benchmark; empty selects syn
	hash     string
	forwards uint64
	preempts uint64
}

func evcExp(topo noc.Topology) noc.Experiment {
	return noc.Experiment{
		Topology: topo,
		Scheme:   noc.Baseline,
		Routing:  noc.XY,
		Policy:   noc.DynamicVA,
		UseEVC:   true,
		Warmup:   500,
		Measure:  3000,
	}
}

func withFaults(e noc.Experiment, policy noc.FaultPolicy, events ...noc.FaultEvent) noc.Experiment {
	e.Faults = &noc.FaultSchedule{Policy: policy, Events: events}
	return e
}

// linkFlap fails one link per direction around the centre of Mesh(8,8)
// (router 27 is x=3, y=3) every 200 cycles and repairs it 100 cycles later,
// so a dozen storms find express paths sourced at, relayed through and
// sinking next to a dying link.
func linkFlap() []noc.FaultEvent {
	links := []struct{ router, port int }{{27, 0}, {36, 1}, {28, 3}, {35, 2}}
	var ev []noc.FaultEvent
	for k := 0; k < 12; k++ {
		l := links[k%len(links)]
		at := int64(600 + 200*k)
		ev = append(ev,
			noc.FaultEvent{Cycle: at, Kind: noc.LinkDown, Router: l.router, Port: l.port},
			noc.FaultEvent{Cycle: at + 100, Kind: noc.LinkUp, Router: l.router, Port: l.port})
	}
	return ev
}

func goldenPoints() []goldenPoint {
	mesh := func() noc.Topology { return noc.Mesh(8, 8) }
	churned := evcExp(mesh())
	churned.Churn = &noc.FaultChurn{
		Seed: 7, LinkFail: 4e-5, LinkRepair: 0.01,
		RouterFail: 4e-6, RouterRepair: 0.01, Policy: noc.FaultReroute,
	}
	churned.Reliable = &noc.Reliability{Timeout: 64, MaxTimeout: 256, Budget: 8}
	return []goldenPoint{
		{
			name: "mesh8/bitcomp-0.10", exp: evcExp(mesh()),
			syn:  noc.Synthetic{Pattern: noc.BitComplement, Rate: 0.10},
			hash: "bb4c89ca09b1be53bf4466e72aa2eea952b1ac79fae2ffe9c21611bf16f4e330", forwards: 63286, preempts: 16167,
		},
		{
			name: "mesh8/uniform-0.08", exp: evcExp(mesh()),
			syn:  noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.08},
			hash: "84e5e6ebc699dfc785d0a392209be3a129b742cd827799b59b897057c2e65424", forwards: 36510, preempts: 4617,
		},
		{
			// Saturated: preemptions and credit stalls.
			name: "mesh8/transpose-0.30", exp: evcExp(mesh()),
			syn:  noc.Synthetic{Pattern: noc.BitPermutation, Rate: 0.30},
			hash: "c388e7ef7e692896bd6cfa66a4c956166be5399ff8469698cc629c88e4afeab8", forwards: 34970, preempts: 15000,
		},
		{
			name: "cmesh4x4x4/uniform-0.05", exp: evcExp(noc.CMesh(4, 4, 4)),
			syn:  noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.05},
			hash: "5a363b7babbe8650ae076e2a682d01327790f689777b34782dccbd0515251bbe", forwards: 7442, preempts: 1214,
		},
		{
			name: "cmesh4x4x4/fma3d", exp: evcExp(noc.CMesh(4, 4, 4)), cmp: "fma3d",
			hash: "4b6e589f242cff78db7b5a277349755e8da2ed5adaab2178912a050b1af7aec7", forwards: 5290, preempts: 1366,
		},
		{
			name: "mesh8/link-flap-drop", exp: withFaults(evcExp(mesh()), noc.FaultDrop, linkFlap()...),
			syn:  noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.30},
			hash: "d1f9907f1c6fd4b031493dfeb25e00f59643d482ec67c13a376422afd3d589ec", forwards: 61866, preempts: 24441,
		},
		{
			// Loaded enough that committed heads sit behind the dying link:
			// the salvage path of FaultScan.
			name: "mesh8/link-flap-reroute", exp: withFaults(evcExp(mesh()), noc.FaultReroute, linkFlap()...),
			syn:  noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.30},
			hash: "e96ccfb2cfb382f6a37d89c8bb82cbdd862493cfa1109fca0aaf6d9dbbde57d9", forwards: 55812, preempts: 22468,
		},
		{
			name: "mesh8/router-down", exp: withFaults(evcExp(mesh()), noc.FaultDrop,
				noc.FaultEvent{Cycle: 1000, Kind: noc.RouterDown, Router: 27},
				noc.FaultEvent{Cycle: 2200, Kind: noc.RouterUp, Router: 27}),
			syn:  noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.10},
			hash: "70bf713237a969a574c0d0f017d656b86f5b56b3efbc1f3ba2f823356c9eb466", forwards: 27927, preempts: 4167,
		},
		{
			name: "mesh8/churn-reliable", exp: churned,
			syn:  noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.10},
			hash: "0e74ac6ca6c91b8fee7a8e93c71c8efa19e5167864e5f86cd5e29f3ed72e21a1", forwards: 16254, preempts: 3961,
		},
	}
}

// TestGoldenEVC pins EVC results bit for bit, with invariants checked every
// cycle. The constants were written on the last commit with a private EVC
// pipeline; any refactor of internal/evc or of the router pipeline it rides
// has to reproduce them unchanged. (Each point keeps the "/w0" the test floor
// knows it by.)
func TestGoldenEVC(t *testing.T) {
	for _, g := range goldenPoints() {
		g := g
		t.Run(g.name+"/w0", func(t *testing.T) {
			t.Parallel()
			e := g.exp
			n := e.Build()
			n.CheckInvariants = true
			var w noc.Workload
			if g.cmp == "" {
				w = e.SyntheticWorkload(g.syn)
			} else {
				var err error
				if w, err = e.CMPWorkload(g.cmp); err != nil {
					t.Fatal(err)
				}
			}
			res := e.RunOn(n, w)
			js, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var forwards, preempts uint64
			for r := 0; r < e.Topology.Routers(); r++ {
				er := n.Router(r).(*evc.Router)
				forwards += er.ExpressForwards
				preempts += er.Preemptions
			}
			hash := fmt.Sprintf("%x", sha256.Sum256(js))
			if hash != g.hash || forwards != g.forwards || preempts != g.preempts {
				t.Errorf("golden mismatch:\n got hash: %q, forwards: %d, preempts: %d\nwant hash: %q, forwards: %d, preempts: %d\nresult: %s",
					hash, forwards, preempts, g.hash, g.forwards, g.preempts, js)
			}
		})
	}
}
