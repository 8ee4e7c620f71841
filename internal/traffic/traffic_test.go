package traffic_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pseudocircuit/internal/flit"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/traffic"
)

// sink collects injected packets.
type sink struct{ pkts []*flit.Packet }

func (s *sink) Inject(p *flit.Packet) { s.pkts = append(s.pkts, p) }

func TestUniformRandomProperties(t *testing.T) {
	w := traffic.NewSynthetic(traffic.Config{
		Pattern: traffic.UniformRandom, Nodes: 64, Rate: 0.5, PacketSize: 5,
	}, sim.NewRNG(1))
	var s sink
	for cy := sim.Cycle(0); cy < 2000; cy++ {
		w.Tick(cy, &s)
	}
	if len(s.pkts) == 0 || w.Done() {
		t.Fatalf("%d packets, done %v: an open-loop source injects and never finishes", len(s.pkts), w.Done())
	}
	seen := map[int]bool{}
	for _, p := range s.pkts {
		if p.Src == p.Dst {
			t.Fatal("self-addressed packet")
		}
		if p.Dst < 0 || p.Dst >= 64 || p.Size != 5 {
			t.Fatalf("bad packet %+v", p)
		}
		seen[p.Dst] = true
	}
	if len(seen) < 50 {
		t.Errorf("uniform random reached only %d destinations", len(seen))
	}
}

func TestInjectionRate(t *testing.T) {
	const rate = 0.2
	w := traffic.NewSynthetic(traffic.Config{
		Pattern: traffic.UniformRandom, Nodes: 64, Rate: rate, PacketSize: 5,
	}, sim.NewRNG(2))
	var s sink
	const cycles = 5000
	for cy := sim.Cycle(0); cy < cycles; cy++ {
		w.Tick(cy, &s)
	}
	flits := 0
	for _, p := range s.pkts {
		flits += p.Size
	}
	got := float64(flits) / cycles / 64
	if math.Abs(got-rate) > 0.02 {
		t.Errorf("offered load = %.4f flits/node/cycle, want %.2f", got, rate)
	}
}

func TestBitComplement(t *testing.T) {
	w := traffic.NewSynthetic(traffic.Config{
		Pattern: traffic.BitComplement, Nodes: 64, Rate: 1,
	}, sim.NewRNG(3))
	rng := sim.NewRNG(4)
	for node := 0; node < 64; node++ {
		if got := w.Destination(node, rng); got != 63-node {
			t.Fatalf("BC dest of %d = %d, want %d", node, got, 63-node)
		}
	}
}

func TestBitPermutationTranspose(t *testing.T) {
	w := traffic.NewSynthetic(traffic.Config{
		Pattern: traffic.BitPermutation, Nodes: 64, Rate: 1,
	}, sim.NewRNG(3))
	rng := sim.NewRNG(4)
	// (x,y) -> (y,x): node 1 = (1,0) -> (0,1) = node 8.
	if got := w.Destination(1, rng); got != 8 {
		t.Fatalf("BP dest of 1 = %d, want 8", got)
	}
	// Diagonal nodes are fixed points; the generator must skip them, so
	// Destination returns the node itself and Tick drops it.
	if got := w.Destination(9, rng); got != 9 {
		t.Fatalf("BP dest of 9 = %d, want 9 (fixed point)", got)
	}
}

func TestHotspotSkew(t *testing.T) {
	w := traffic.NewSynthetic(traffic.Config{
		Pattern: traffic.Hotspot, Nodes: 64, Rate: 1,
		HotspotNode: 7, HotspotFrac: 0.5,
	}, sim.NewRNG(5))
	rng := sim.NewRNG(6)
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if w.Destination(3, rng) == 7 {
			hits++
		}
	}
	if got := float64(hits) / n; got < 0.45 || got > 0.58 {
		t.Errorf("hotspot fraction = %.3f, want ~0.5", got)
	}
}

func TestFlows(t *testing.T) {
	w := traffic.NewFlows(
		traffic.Flow{Src: 0, Dst: 5, Size: 3, Period: 10, Count: 4},
		traffic.Flow{Src: 1, Dst: 2, Size: 1, Period: 7, Start: 3},
	)
	var s sink
	for cy := sim.Cycle(0); cy < 100; cy++ {
		w.Tick(cy, &s)
	}
	if w.Sent(0) != 4 {
		t.Errorf("flow 0 sent %d, want 4 (capped)", w.Sent(0))
	}
	if w.Sent(1) != 14 { // cycles 3,10,...,94
		t.Errorf("flow 1 sent %d, want 14", w.Sent(1))
	}
	if w.Done() {
		t.Error("Done with an unbounded flow")
	}
	bounded := traffic.NewFlows(traffic.Flow{Src: 0, Dst: 1, Period: 5, Count: 2})
	var s2 sink
	for cy := sim.Cycle(0); cy < 20; cy++ {
		bounded.Tick(cy, &s2)
	}
	if !bounded.Done() {
		t.Error("bounded flow not Done")
	}
	if len(s2.pkts) != 2 {
		t.Errorf("bounded flow injected %d, want 2", len(s2.pkts))
	}
}

func TestPatternStrings(t *testing.T) {
	for p, want := range map[traffic.Pattern]string{
		traffic.UniformRandom:  "uniform",
		traffic.BitComplement:  "bitcomp",
		traffic.BitPermutation: "transpose",
		traffic.Hotspot:        "hotspot",
		traffic.Pattern(9):     "Pattern(9)",
	} {
		if p.String() != want {
			t.Errorf("%v.String() = %q", p, p.String())
		}
	}
}

// TestInjectionStreamsPinned: the first 32 injections of the two patterns
// that draw destinations, as cycle:src>dst, read from the tree in which every
// node's generator was an allocation of its own. Keeping the generators by
// value in one array must move no draw: same streams, same order.
func TestInjectionStreamsPinned(t *testing.T) {
	for _, tc := range []struct {
		cfg  traffic.Config
		want string
	}{
		{traffic.Config{Pattern: traffic.UniformRandom, Nodes: 64, Rate: 0.1}, pinnedUniform},
		{traffic.Config{Pattern: traffic.Hotspot, Nodes: 64, Rate: 0.1, HotspotNode: 27, HotspotFrac: 0.3}, pinnedHotspot},
	} {
		w := traffic.NewSynthetic(tc.cfg, sim.NewRNG(7))
		var s sink
		got := ""
		for cy := sim.Cycle(0); len(s.pkts) < 32; cy++ {
			from := len(s.pkts)
			w.Tick(cy, &s)
			for _, p := range s.pkts[from:] {
				got += fmt.Sprintf("%d:%d>%d ", cy, p.Src, p.Dst)
			}
		}
		if got = strings.Join(strings.Fields(got)[:32], " "); got != tc.want {
			t.Errorf("%v injects\n%s\nwant\n%s", tc.cfg.Pattern, got, tc.want)
		}
	}
}

const (
	pinnedUniform = `0:8>18 1:35>3 2:44>8 2:45>10 4:8>57 5:20>58 5:50>17 6:10>5 8:4>42 8:32>49 9:53>35 10:25>7 11:27>24 11:39>56 12:10>20 13:44>17 13:56>25 14:28>61 16:26>45 19:11>13 20:48>20 20:61>50 21:19>42 21:28>22 22:62>61 23:32>18 23:62>44 27:4>21 27:20>25 30:38>26 30:44>61 31:34>53`
	pinnedHotspot = `0:8>6 1:35>27 2:44>27 2:45>58 3:8>41 5:20>37 5:50>48 6:10>39 8:4>13 8:32>26 9:53>60 10:25>27 11:10>27 11:27>6 11:39>25 13:44>18 13:56>2 14:28>21 16:26>27 19:11>8 20:28>30 20:48>8 20:61>57 21:19>40 22:32>3 22:62>27 23:62>27 26:4>27 26:20>54 29:44>27 30:38>27 31:34>27`
)
