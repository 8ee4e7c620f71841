package stats

// A router event is counted once, in the row of the router it happened at.
// The network-wide figures (Registry.Totals) and the energy meter are sums
// of rows taken on read; nothing else counts router events.

// PortStats holds the counters kept per input port. BufHighWater is the
// deepest any VC buffer of the port ever got (in flits) since the last Reset;
// CreditStalls counts head-of-VC flits that were ready to traverse but were
// held back by credit exhaustion, one count per stalled VC per cycle.
type PortStats struct {
	Traversals   uint64 // crossbar traversals entering through this port (all paths)
	PCReused     uint64 // traversals that reused a pseudo-circuit (incl. bypass)
	Bypassed     uint64 // traversals that also bypassed the input buffer
	BufHighWater int    // max flits buffered in any one VC of this port
	CreditStalls uint64 // head-of-VC cycles lost waiting for downstream credit
}

// Events holds the counters kept per router rather than per port.
type Events struct {
	SAGrants     uint64 // switch-arbitration grants
	PCCreated    uint64 // pseudo-circuits written by traversals
	PCTerminated uint64 // terminations (conflict, credit exhaustion or fault)
	PCSpeculated uint64 // speculative revivals
	SpecReused   uint64 // pseudo-circuit reuses of speculative circuits
	HeadTravs    uint64 // header-flit traversals
	HeadReused   uint64 // header-flit pseudo-circuit reuses
	HeadBypassed uint64 // header-flit buffer bypasses
	XbarSame     uint64 // header traversals repeating the input port's previous connection (Fig. 1)
	XbarPrev     uint64 // header traversals with a previous connection to compare against
	BufWrites    uint64 // flits written into an input VC buffer
	BufReads     uint64 // flits read out of one
	// Misses[c] counts the header traversals that went through SA, by why
	// they missed (MissClass): with HeadReused they sum to HeadTravs.
	Misses [NumMissClasses]uint64
}

// MissClass is why a header traversal did not ride a pseudo-circuit: the
// state of its input port's register pair at the header's first SA grant,
// before the grant terminates anything (DESIGN.md §6, the census).
type MissClass int8

const (
	// MissOtherVC: a live circuit to the header's output, held for another
	// input VC.
	MissOtherVC MissClass = iota
	// MissDeadOtherVC: the same, terminated.
	MissDeadOtherVC
	// MissOtherOutput: a circuit, live or terminated, to another output.
	MissOtherOutput
	// MissOutputTaken: a terminated circuit that would have matched, torn
	// down because another connection took its output (§3.C, 1).
	MissOutputTaken
	// MissTornDown: a terminated circuit that would have matched, torn down
	// by credit exhaustion (§3.C, 2) or a grant on its own input.
	MissTornDown
	// MissVAPending: a live circuit that matched, passed over because the
	// header's VC allocation had not succeeded (its SA request is
	// speculative).
	MissVAPending
	// MissNoCircuit: no register pair, because none was ever written (always
	// under Baseline) or a fault cleared it.
	MissNoCircuit
	NumMissClasses
)

// MissClassNames labels the classes in tables, in MissClass order.
var MissClassNames = [NumMissClasses]string{
	"live circuit, same output, other VC",
	"dead circuit, same output, other VC",
	"circuit to another output",
	"would have matched: output taken",
	"would have matched: credit or own grant",
	"matched, VA pending",
	"no circuit",
}

func (e *Events) add(o *Events) {
	e.SAGrants += o.SAGrants
	e.PCCreated += o.PCCreated
	e.PCTerminated += o.PCTerminated
	e.PCSpeculated += o.PCSpeculated
	e.SpecReused += o.SpecReused
	e.HeadTravs += o.HeadTravs
	e.HeadReused += o.HeadReused
	e.HeadBypassed += o.HeadBypassed
	e.XbarSame += o.XbarSame
	e.XbarPrev += o.XbarPrev
	e.BufWrites += o.BufWrites
	e.BufReads += o.BufReads
	for c := range e.Misses {
		e.Misses[c] += o.Misses[c]
	}
}

// RouterStats is one router's row: its own Events, its input ports' counters
// and the flits that left each output port. Only the owning router writes it.
type RouterStats struct {
	ID int
	Events
	In       []PortStats
	OutSends []uint64
}

// Totals is a sum of rows: Events added up, and the port counters added up
// into the embedded PortStats (whose BufHighWater is the deepest, not a sum).
type Totals struct {
	Events
	PortStats
}

func (t *Totals) addPorts(in []PortStats) {
	for i := range in {
		p := &in[i]
		t.Traversals += p.Traversals
		t.PCReused += p.PCReused
		t.Bypassed += p.Bypassed
		t.CreditStalls += p.CreditStalls
		t.BufHighWater = max(t.BufHighWater, p.BufHighWater)
	}
}

// Sum returns this router's counters with the ports added up.
func (r *RouterStats) Sum() Totals {
	t := Totals{Events: r.Events}
	t.addPorts(r.In)
	return t
}

// Reusability returns the fraction of flit traversals that reused a
// pseudo-circuit (paper Fig. 8b/10 definition).
func (t Totals) Reusability() float64 { return ratio(t.PCReused, t.Traversals) }

// BypassRate returns the fraction of flit traversals that bypassed the input
// buffer.
func (t Totals) BypassRate() float64 { return ratio(t.Bypassed, t.Traversals) }

// HeadReuseRate returns the fraction of header-flit traversals that reused a
// pseudo-circuit — the component of reusability that shortens packet latency
// directly (body flits pipeline behind their header either way).
func (t Totals) HeadReuseRate() float64 { return ratio(t.HeadReused, t.HeadTravs) }

// HeadBypassRate returns the fraction of header-flit traversals that also
// bypassed the input buffer.
func (t Totals) HeadBypassRate() float64 { return ratio(t.HeadBypassed, t.HeadTravs) }

// MissRate returns the fraction of header-flit traversals that missed for
// reason c.
func (t Totals) MissRate(c MissClass) float64 { return ratio(t.Misses[c], t.HeadTravs) }

// XbarLocality returns crossbar-connection temporal locality (Fig. 1): the
// fraction of header traversals repeating the previous connection at their
// input port.
func (t Totals) XbarLocality() float64 { return ratio(t.XbarSame, t.XbarPrev) }

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Registry holds every router's row for one network, allocated flat (one
// slice of rows, one of ports, one of output counts, prefix-summed by radix
// in router order). A router writes only its own row, so there is nothing to
// merge.
type Registry struct {
	rows []RouterStats
	in   []PortStats
	out  []uint64
}

// NewRegistry returns a registry with one zeroed row per router; inPorts and
// outPorts give each router's radix.
func NewRegistry(inPorts, outPorts []int) *Registry {
	var nIn, nOut int
	for r := range inPorts {
		nIn += inPorts[r]
		nOut += outPorts[r]
	}
	g := &Registry{
		rows: make([]RouterStats, len(inPorts)),
		in:   make([]PortStats, nIn),
		out:  make([]uint64, nOut),
	}
	nIn, nOut = 0, 0
	for r := range g.rows {
		row := &g.rows[r]
		row.ID = r
		row.In = g.in[nIn : nIn+inPorts[r] : nIn+inPorts[r]]
		row.OutSends = g.out[nOut : nOut+outPorts[r] : nOut+outPorts[r]]
		nIn += inPorts[r]
		nOut += outPorts[r]
	}
	return g
}

// Router returns the row of router id.
func (g *Registry) Router(id int) *RouterStats { return &g.rows[id] }

// Routers returns every row in router-ID order (the registry's own storage).
func (g *Registry) Routers() []RouterStats { return g.rows }

// Reset zeroes all counters in place, marking the start of the measurement
// phase; the network calls it from ResetStats so the rows cover exactly the
// window stats.Network does.
func (g *Registry) Reset() {
	for r := range g.rows {
		g.rows[r].Events = Events{}
	}
	clear(g.in)
	clear(g.out)
}

// Totals returns the network-wide router-event counts: the sum of all rows.
// It allocates nothing.
func (g *Registry) Totals() Totals {
	var t Totals
	for r := range g.rows {
		t.add(&g.rows[r].Events)
	}
	t.addPorts(g.in)
	return t
}
