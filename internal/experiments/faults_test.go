package experiments_test

import (
	"testing"

	"pseudocircuit/internal/experiments"
)

// TestFaultWindowShape: the fault window is visible in the measurements —
// fault transitions land in the expected segments and every config pays a
// latency penalty while the fault is active. The router fault is the violent
// case: in-flight packets are dropped or rerouted, the pseudo-circuit scheme
// tears down circuits crossing the dead router, and the post window recovers.
// (A single link fault at the low-load operating point is deliberately mild —
// fault-aware routing detours around it — so the strong assertions apply to
// the router fault only.)
func TestFaultWindowShape(t *testing.T) {
	r := experiments.FaultWindow(experiments.Options{Warmup: 400, Measure: 4000})
	if len(r.Configs) == 0 || len(r.Segments) != 3 {
		t.Fatalf("unexpected shape: %d configs, %d segments", len(r.Configs), len(r.Segments))
	}
	rtr := -1
	for i, cfg := range r.Configs {
		if cfg == "Pseudo+S+B (router)" {
			rtr = i
		}
		// The down event fires at the first cycle of the fault window, the up
		// event at the first cycle of the post window.
		if r.Cells[i][0].FaultEvents != 0 || r.Cells[i][1].FaultEvents != 1 || r.Cells[i][2].FaultEvents != 1 {
			t.Errorf("%s: fault events per window [%d %d %d], want [0 1 1]", cfg,
				r.Cells[i][0].FaultEvents, r.Cells[i][1].FaultEvents, r.Cells[i][2].FaultEvents)
		}
		if during, pre := r.Cells[i][1].AvgLatency, r.Cells[i][0].AvgLatency; during <= pre {
			t.Errorf("%s: faulted-window latency %.2f not above healthy %.2f", cfg, during, pre)
		}
		// No fault damage outside the fault storms.
		if r.Cells[i][0].PacketsDropped != 0 || r.Cells[i][0].PacketsRerouted != 0 {
			t.Errorf("%s: healthy pre window shows fault damage (dropped %d, rerouted %d)",
				cfg, r.Cells[i][0].PacketsDropped, r.Cells[i][0].PacketsRerouted)
		}
	}
	if rtr < 0 {
		t.Fatal("router-fault config missing")
	}
	if r.Cells[rtr][1].PacketsDropped == 0 {
		t.Error("router fault dropped no packets")
	}
	if r.Cells[rtr][1].PCFaultTerminated == 0 {
		t.Error("router fault tore down no pseudo-circuits")
	}
	if post, during := r.Cells[rtr][2].AvgLatency, r.Cells[rtr][1].AvgLatency; post >= during {
		t.Errorf("router fault: post-window latency %.2f did not recover below faulted %.2f", post, during)
	}
}

// TestFaultHeatmapShape: the spatial deltas point at the faulted element —
// reuse collapses at the dead router while far-corner routers are barely
// touched.
func TestFaultHeatmapShape(t *testing.T) {
	r := experiments.FaultHeatmap(experiments.Options{Warmup: 400, Measure: 4000})
	if len(r.ReuseDelta) != r.KX*r.KY {
		t.Fatalf("grid size %d, want %d", len(r.ReuseDelta), r.KX*r.KY)
	}
	if r.ReuseDelta[r.Router] >= 0 {
		t.Errorf("dead router %d reuse delta %.3f not negative", r.Router, r.ReuseDelta[r.Router])
	}
	// The far corner (router 63) should suffer less reuse loss than the dead
	// router itself.
	far := r.KX*r.KY - 1
	if r.ReuseDelta[far] < r.ReuseDelta[r.Router] {
		t.Errorf("far corner delta %.3f below dead router's %.3f", r.ReuseDelta[far], r.ReuseDelta[r.Router])
	}
}

// TestChurnShape: without churn nothing fails and the reliability layer has
// nothing to recover; the highest level does perturb the network; and a
// level's fault process is the same whichever router architecture faces it.
func TestChurnShape(t *testing.T) {
	r := experiments.Churn(experiments.Options{Warmup: 400, Measure: 4000})
	if len(r.Configs) == 0 || len(r.Cells) != len(r.Configs) {
		t.Fatalf("unexpected shape: %d configs, %d rows", len(r.Configs), len(r.Cells))
	}
	none, high := -1, -1
	for l, lvl := range r.Levels {
		switch lvl {
		case "none":
			none = l
		case "high":
			high = l
		}
	}
	if none < 0 || high < 0 {
		t.Fatalf("levels %v lack none/high", r.Levels)
	}
	for i, cfg := range r.Configs {
		if c := r.Cells[i][none]; c.FaultEvents != 0 || c.PacketsDropped != 0 || c.PacketsRetransmitted != 0 || c.DeliveryFailed != 0 {
			t.Errorf("%s/none: events %d, dropped %d, retransmitted %d, failed %d, want all zero",
				cfg, c.FaultEvents, c.PacketsDropped, c.PacketsRetransmitted, c.DeliveryFailed)
		}
		if r.Cells[i][high].FaultEvents == 0 {
			t.Errorf("%s/high: no fault events", cfg)
		}
		for l, lvl := range r.Levels {
			if got, want := r.Cells[i][l].FaultEvents, r.Cells[0][l].FaultEvents; got != want {
				t.Errorf("%s/%s: %d fault events, %s saw %d under the same churn seed", cfg, lvl, got, r.Configs[0], want)
			}
		}
	}
}
