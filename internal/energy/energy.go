// Package energy implements the Orion-style router energy model the paper
// uses (§5, Table II). Energy is accounted per micro-architectural event:
// buffer write, buffer read, crossbar traversal and switch arbitration.
// Pseudo-circuit comparators are assumed negligible, as in the paper.
//
// Table II (45 nm) gives per-component energy and its share of router
// energy:
//
//	buffer   23.40 %   (1.96 pJ per flit: write + read)
//	crossbar 76.22 %   (6.38 pJ per traversal)
//	arbiter   0.24 %   (0.02 pJ per allocation)
//
// Only the ratios matter for the paper's claim: schemes without buffer
// bypassing save almost nothing (arbiter energy is tiny), while buffer
// bypassing saves the buffer share times the bypass rate (Fig. 11).
package energy

// Params holds per-event energies in picojoules.
type Params struct {
	BufferWrite float64 // per flit written into an input VC buffer
	BufferRead  float64 // per flit read out of an input VC buffer
	Crossbar    float64 // per flit crossbar traversal
	Arbiter     float64 // per switch-arbitration grant
}

// PaperParams returns the Table II energy characterization.
func PaperParams() Params {
	return Params{
		BufferWrite: 0.98,
		BufferRead:  0.98,
		Crossbar:    6.38,
		Arbiter:     0.02,
	}
}

// Meter prices one set of event counts. It counts nothing itself: the counts
// are sums of the routers' own rows (stats.Registry.Totals), taken when the
// energy is asked for. The zero Params price every event at zero.
type Meter struct {
	Params
	Writes       uint64 // buffer writes
	Reads        uint64 // buffer reads
	Traversals   uint64 // crossbar traversals
	Arbitrations uint64 // switch-arbitration grants
}

// BufferEnergy returns total buffer energy in pJ.
func (m Meter) BufferEnergy() float64 {
	return float64(m.Writes)*m.BufferWrite + float64(m.Reads)*m.BufferRead
}

// CrossbarEnergy returns total crossbar energy in pJ.
func (m Meter) CrossbarEnergy() float64 {
	return float64(m.Traversals) * m.Crossbar
}

// ArbiterEnergy returns total arbiter energy in pJ.
func (m Meter) ArbiterEnergy() float64 {
	return float64(m.Arbitrations) * m.Arbiter
}

// Total returns total router energy in pJ.
func (m Meter) Total() float64 {
	return m.BufferEnergy() + m.CrossbarEnergy() + m.ArbiterEnergy()
}

// PerHopReference returns the energy of one fully pipelined baseline flit
// hop (write + read + traversal + arbitration), the unit Table II's
// percentages describe.
func (p Params) PerHopReference() float64 {
	return p.BufferWrite + p.BufferRead + p.Crossbar + p.Arbiter
}

// Shares returns each component's share of PerHopReference, in the Table II
// order (buffer, crossbar, arbiter). Shares sum to 1.
func (p Params) Shares() (buffer, crossbar, arbiter float64) {
	ref := p.PerHopReference()
	if ref == 0 {
		return 0, 0, 0
	}
	return (p.BufferWrite + p.BufferRead) / ref, p.Crossbar / ref, p.Arbiter / ref
}
