package evc_test

import (
	"testing"

	"pseudocircuit/internal/evc"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
)

// TestParityStriping: express paths sourced at even and odd coordinates use
// different EVCs, so each (link, VC) pair carries one source's flits; a
// packet one hop short of an express path takes an NVC, and ejection takes VC
// 0 whatever the credits say (the NI drains every VC).
func TestParityStriping(t *testing.T) {
	m := topology.NewMesh(8, 8)
	cfg := evcConfig(m)
	n := network.New(cfg)
	n.CheckInvariants = true
	// Two long flows starting at x=0 (even) and x=1 (odd) along row 0.
	w := traffic.NewFlows(
		traffic.Flow{Src: 0, Dst: 7, Size: 1, Period: 6},
		traffic.Flow{Src: 1, Dst: 6, Size: 1, Period: 7, Start: 3},
	)
	n.Run(w, 3000)
	if n.Stats.PacketsDelivered < 500 {
		t.Fatalf("only %d delivered", n.Stats.PacketsDelivered)
	}
	// Both parities express: sources 0,2,4 (even EVC) and 1,3,5 (odd EVC)
	// along the paths; no credit mis-relay would show as a stall or a
	// credit-overflow panic under CheckInvariants.
	pick := func(r, out, dst int) int { // VC 0 has the least credit; port 4 ejects
		return n.Router(r).(*evc.Router).PickVC(out, dst, 0, out == 4, make([]bool, 4), []int16{1, 4, 4, 4})
	}
	if even, odd := pick(0, topology.PortE, 7), pick(1, topology.PortE, 6); even < 2 || odd < 2 || even == odd {
		t.Errorf("express paths from x = 0 and x = 1 took VCs %d and %d; want one EVC each", even, odd)
	}
	if v := pick(5, topology.PortE, 6); v != 1 {
		t.Errorf("a one-hop packet took VC %d; want NVC 1, the one with most credit", v)
	}
	if v := pick(6, 4, 6); v != 0 {
		t.Errorf("ejection took VC %d; want 0", v)
	}
}

// TestEVCCreditConservationUnderChurn: sustained mixed traffic with many
// express segments neither leaks nor duplicates credits (overflow panics
// are armed by CheckInvariants; leaks appear as a throughput collapse).
func TestEVCCreditConservationUnderChurn(t *testing.T) {
	m := topology.NewMesh(8, 8)
	cfg := evcConfig(m)
	n := network.New(cfg)
	n.CheckInvariants = true
	w := traffic.NewFlows(
		traffic.Flow{Src: 0, Dst: 7, Size: 5, Period: 8},
		traffic.Flow{Src: 7, Dst: 0, Size: 5, Period: 8, Start: 1},
		traffic.Flow{Src: 56, Dst: 63, Size: 5, Period: 9, Start: 2},
		traffic.Flow{Src: 0, Dst: 56, Size: 5, Period: 10, Start: 3},
		traffic.Flow{Src: 63, Dst: 0, Size: 5, Period: 11, Start: 4},
	)
	n.Run(w, 2000)
	first := n.Stats.PacketsDelivered
	n.Run(w, 6000)
	// Throughput must be sustained: the last 6000 cycles deliver at least
	// 2.5x the first 2000 (a credit leak would strangle the flows).
	if n.Stats.PacketsDelivered-first < first*5/2 {
		t.Fatalf("throughput collapsed: %d then %d total", first, n.Stats.PacketsDelivered)
	}
}
