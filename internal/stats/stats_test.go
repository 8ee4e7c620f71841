package stats_test

import (
	"math"
	"testing"

	"pseudocircuit/internal/stats"
)

func TestZeroValueSafe(t *testing.T) {
	var n stats.Network
	for name, v := range map[string]float64{
		"AvgLatency":    n.AvgLatency(),
		"AvgNetLatency": n.AvgNetLatency(),
		"AvgHops":       n.AvgHops(),
		"E2ELocality":   n.E2ELocality(),
		"Throughput":    n.Throughput(64),
	} {
		if v != 0 {
			t.Errorf("%s on zero value = %v", name, v)
		}
	}
}

func TestRecordDelivery(t *testing.T) {
	var n stats.Network
	n.RecordDelivery(10, 8, 5, 3, true)
	n.RecordDelivery(20, 16, 1, 4, true)
	n.RecordDelivery(100, 90, 5, 2, false) // unmeasured: counted, not sampled
	if n.PacketsDelivered != 3 || n.FlitsDelivered != 11 {
		t.Fatalf("counts = %d pkts / %d flits", n.PacketsDelivered, n.FlitsDelivered)
	}
	if got := n.AvgLatency(); math.Abs(got-15) > 1e-9 {
		t.Errorf("AvgLatency = %v, want 15", got)
	}
	if got := n.AvgNetLatency(); math.Abs(got-12) > 1e-9 {
		t.Errorf("AvgNetLatency = %v, want 12", got)
	}
	if got := n.AvgHops(); math.Abs(got-3.5) > 1e-9 {
		t.Errorf("AvgHops = %v, want 3.5", got)
	}
}

func TestRates(t *testing.T) {
	var rt stats.Totals
	rt.Traversals = 200
	rt.PCReused = 80
	rt.Bypassed = 30
	rt.HeadTravs = 50
	rt.HeadReused = 20
	rt.HeadBypassed = 5
	rt.XbarPrev = 100
	rt.XbarSame = 31
	if got := rt.Reusability(); got != 0.4 {
		t.Errorf("Reusability = %v", got)
	}
	if got := rt.BypassRate(); got != 0.15 {
		t.Errorf("BypassRate = %v", got)
	}
	if got := rt.HeadReuseRate(); got != 0.4 {
		t.Errorf("HeadReuseRate = %v", got)
	}
	if got := rt.HeadBypassRate(); got != 0.1 {
		t.Errorf("HeadBypassRate = %v", got)
	}
	if got := rt.XbarLocality(); got != 0.31 {
		t.Errorf("XbarLocality = %v", got)
	}
	var n stats.Network
	n.E2EPrev = 100
	n.E2ESame = 22
	if got := n.E2ELocality(); got != 0.22 {
		t.Errorf("E2ELocality = %v", got)
	}
}

func TestThroughputAndReset(t *testing.T) {
	var n stats.Network
	n.Reset(100)
	n.FlitsDelivered = 640
	n.MeasuredTo = 200
	if got := n.Throughput(64); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("Throughput = %v, want 0.1", got)
	}
	n.Reset(500)
	if n.FlitsDelivered != 0 || n.MeasuredFrom != 500 {
		t.Error("Reset did not clear counters / set window start")
	}
}

// TestZeroLengthWindow: rate accessors must not divide by a zero- or
// negative-length measurement window. Reset(now) sets MeasuredTo = now, so
// the instant after a reset — before the next Step — is exactly this case.
func TestZeroLengthWindow(t *testing.T) {
	var n stats.Network
	n.Reset(100)
	n.FlitsDelivered = 640
	n.PacketsInjected = 128
	if got := n.Window(); got != 0 {
		t.Errorf("Window right after Reset = %d, want 0", got)
	}
	if got := n.Throughput(64); got != 0 {
		t.Errorf("Throughput on zero window = %v, want 0", got)
	}
	if got := n.InjectionRate(64); got != 0 {
		t.Errorf("InjectionRate on zero window = %v, want 0", got)
	}
	n.MeasuredTo = 50 // corrupt: To before From must still not blow up
	if n.Window() != 0 || n.Throughput(64) != 0 || n.InjectionRate(64) != 0 {
		t.Error("negative window not guarded")
	}
	n.MeasuredTo = 200
	if got := n.Window(); got != 100 {
		t.Errorf("Window = %d, want 100", got)
	}
	if got := n.Throughput(64); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("Throughput = %v, want 0.1", got)
	}
	if got := n.InjectionRate(64); math.Abs(got-0.02) > 1e-9 {
		t.Errorf("InjectionRate = %v, want 0.02", got)
	}
}
