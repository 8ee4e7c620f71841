// Package traffic implements the synthetic workloads of paper §6.B —
// uniform random (UR), bit complement (BC) and bit permutation (BP, matrix
// transpose) — plus a hotspot pattern used in tests and ablations. Each node
// injects packets as a Bernoulli process with a configurable per-node flit
// injection rate; synthetic packets are 5 flits long as in the paper.
package traffic

import (
	"fmt"

	"pseudocircuit/internal/flit"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/sim"
)

// Pattern selects the destination distribution.
type Pattern int

const (
	// UniformRandom sends each packet to a uniformly random other node.
	UniformRandom Pattern = iota
	// BitComplement sends node i to node (N-1)-i (bitwise complement of the
	// node index for power-of-two N), a long-distance pattern that
	// saturates early.
	BitComplement
	// BitPermutation is the matrix-transpose permutation on the node grid:
	// node (x, y) sends to node (y, x). All traffic crosses the diagonal,
	// saturating earliest under DOR (paper §6.B).
	BitPermutation
	// Hotspot sends a configurable fraction of traffic to one node and the
	// rest uniformly (not in the paper's Fig. 12; used for ablations).
	Hotspot
)

func (p Pattern) String() string {
	switch p {
	case UniformRandom:
		return "uniform"
	case BitComplement:
		return "bitcomp"
	case BitPermutation:
		return "transpose"
	case Hotspot:
		return "hotspot"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Config parameterizes a synthetic workload.
type Config struct {
	Pattern Pattern
	// Nodes is the terminal count. BitPermutation lays them out row-major
	// on a square grid.
	Nodes int
	// Rate is the injection rate in flits per node per cycle.
	Rate float64
	// PacketSize is the flit count per packet (paper: 5).
	PacketSize int
	// HotspotNode and HotspotFrac configure the Hotspot pattern.
	HotspotNode int
	HotspotFrac float64
}

// Synthetic is an open-loop workload implementing network.Workload.
type Synthetic struct {
	cfg Config
	// rngs holds each node's stream by value: Tick draws from every one of
	// them every cycle, in node order, so they sit in one array.
	rngs []sim.RNG
	// inject is the per-node packet probability rate/packetSize as a
	// sim.Threshold, so the coin Tick flips is an integer compare.
	inject uint64
	// side is the node grid's width, isqrt(Nodes).
	side int
}

// NewSynthetic builds a synthetic workload; rng seeds the per-node streams.
func NewSynthetic(cfg Config, rng *sim.RNG) *Synthetic {
	if cfg.Nodes < 2 {
		panic("traffic: need at least 2 nodes")
	}
	if cfg.PacketSize <= 0 {
		cfg.PacketSize = 5
	}
	s := &Synthetic{cfg: cfg, rngs: make([]sim.RNG, cfg.Nodes),
		inject: sim.Threshold(cfg.Rate / float64(cfg.PacketSize)), side: isqrt(cfg.Nodes)}
	for i := range s.rngs {
		s.rngs[i] = *rng.Split()
	}
	return s
}

// Tick implements network.Workload: each node flips a Bernoulli coin with
// probability rate/packetSize (so the flit rate matches cfg.Rate).
func (s *Synthetic) Tick(now sim.Cycle, inj network.Injector) {
	rngs, t := s.rngs, s.inject // locals: the draws' stores cannot alias them
	for node := range rngs {
		rng := &rngs[node]
		if !rng.Below(t) {
			continue
		}
		dst := s.Destination(node, rng)
		if dst == node {
			continue // patterns with fixed points skip self-traffic
		}
		p := network.AcquirePacket(inj)
		p.Src = node
		p.Dst = dst
		p.Size = s.cfg.PacketSize
		p.Class = flit.ClassData
		inj.Inject(p)
	}
}

// Destination returns the pattern's destination for a packet from node.
func (s *Synthetic) Destination(node int, rng *sim.RNG) int {
	n := s.cfg.Nodes
	switch s.cfg.Pattern {
	case UniformRandom:
		d := rng.Intn(n - 1)
		if d >= node {
			d++
		}
		return d
	case BitComplement:
		return n - 1 - node
	case BitPermutation:
		w := s.side
		if w*w != n {
			panic(fmt.Sprintf("traffic: transpose needs a square node grid, got %d nodes, width %d", n, w))
		}
		x, y := node%w, node/w
		return x*w + y // (x, y) -> (y, x)
	case Hotspot:
		if rng.Bernoulli(s.cfg.HotspotFrac) {
			return s.cfg.HotspotNode
		}
		d := rng.Intn(n - 1)
		if d >= node {
			d++
		}
		return d
	default:
		panic("traffic: unknown pattern")
	}
}

// Deliver implements network.Workload (open loop: no reaction).
func (s *Synthetic) Deliver(now sim.Cycle, p *flit.Packet) {}

// Done implements network.Workload; open-loop sources never finish.
func (s *Synthetic) Done() bool { return false }

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}
