// Package noc is the public API of the pseudo-circuit reproduction: a
// cycle-accurate on-chip-network simulator with the pseudo-circuit
// acceleration schemes of Ahn & Kim (MICRO 2010), plus the topologies,
// routing algorithms, VC-allocation policies, traffic models and energy
// accounting their evaluation uses.
//
// Quick start:
//
//	exp := noc.Experiment{
//		Topology: noc.Mesh(8, 8),
//		Scheme:   noc.PseudoSB,
//		Routing:  noc.XY,
//		Policy:   noc.StaticVA,
//	}
//	res := exp.RunSynthetic(noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.1})
//	fmt.Printf("latency: %.2f cycles, reuse: %.1f%%\n", res.AvgLatency, 100*res.Reusability)
//
// The lower layers remain accessible through the returned Network for users
// who need router-level introspection.
package noc

import (
	"context"
	"fmt"
	"io"

	"pseudocircuit/internal/cmp"
	"pseudocircuit/internal/core"
	"pseudocircuit/internal/evc"
	"pseudocircuit/internal/fault"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/obs"
	"pseudocircuit/internal/router"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/stats"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/traffic"
	"pseudocircuit/internal/vcalloc"
)

// Scheme selects a pseudo-circuit configuration; see the paper's four
// schemes plus the baseline.
type Scheme = core.Scheme

// The evaluated schemes (paper §6).
var (
	Baseline = core.Baseline
	Pseudo   = core.Pseudo
	PseudoS  = core.PseudoS
	PseudoB  = core.PseudoB
	PseudoSB = core.PseudoSB
)

// Schemes lists the five configurations in the paper's order.
var Schemes = core.Schemes

// Topology construction (paper §5, §7.A).
type Topology = topology.Topology

// Mesh returns a kx × ky 2D mesh (one terminal per router).
func Mesh(kx, ky int) Topology { return topology.NewMesh(kx, ky) }

// CMesh returns a concentrated mesh with conc terminals per router.
func CMesh(kx, ky, conc int) Topology { return topology.NewCMesh(kx, ky, conc) }

// MECS returns a Multidrop Express Cube.
func MECS(kx, ky, conc int) Topology { return topology.NewMECS(kx, ky, conc) }

// FBFly returns a flattened butterfly.
func FBFly(kx, ky, conc int) Topology { return topology.NewFBFly(kx, ky, conc) }

// Routing algorithms (paper §5).
type Algorithm = routing.Algorithm

const (
	XY     = routing.XY
	YX     = routing.YX
	O1TURN = routing.O1TURN
)

// VC-allocation policies (paper §5).
type Policy = vcalloc.Policy

const (
	DynamicVA = vcalloc.Dynamic
	StaticVA  = vcalloc.Static
)

// Synthetic traffic patterns (paper §6.B).
type Pattern = traffic.Pattern

const (
	UniformRandom  = traffic.UniformRandom
	BitComplement  = traffic.BitComplement
	BitPermutation = traffic.BitPermutation
)

// Synthetic parameterizes a synthetic workload: the pattern and the per-node
// injection rate in flits/node/cycle. PacketSize defaults to the paper's 5
// flits.
type Synthetic struct {
	Pattern    Pattern
	Rate       float64
	PacketSize int
}

// Network re-exports the assembled simulator for low-level use.
type Network = network.Network

// Workload re-exports the traffic-generation interface.
type Workload = network.Workload

// Observability re-exports from the internal layers. The router rows are the
// simulator's own counters and always there; the probes (Series, Tracer,
// StageClock) are opt-in and observation-only: enabling them cannot change
// simulation results (the determinism harness covers this), and the
// zero-value Observe keeps them off at zero cost.
type (
	// Registry holds every router's event counters; see Network.Registry.
	Registry = stats.Registry
	// RouterStats is one router's row in a Registry.
	RouterStats = stats.RouterStats
	// PortStats is one input port's counters within a RouterStats.
	PortStats = stats.PortStats
	// Series is the cycle-windowed time series; see Network.Series.
	Series = stats.Series
	// WindowSample is one closed window of a Series.
	WindowSample = stats.Sample
	// Tracer is the flit-lifecycle event tracer; see Network.Tracer.
	Tracer = obs.Tracer
	// TraceEvent is one recorded lifecycle event.
	TraceEvent = obs.Event
	// StageClock times each phase of every router tick; see
	// Network.Stages.
	StageClock = router.StageClock
	// Stage names one phase of a router tick, StageClock's bucket index.
	Stage = router.Stage
)

// Fault injection re-exports. A FaultSchedule is a model parameter, not an
// execution knob: it participates in canonical specs and result caching, and
// faulted runs stay bit-identical between the naive and the active-set
// schedule (the determinism harness covers faulted configurations too).
type (
	// FaultSchedule declares cycle-stamped link/router down/up events applied
	// deterministically during a run; see Experiment.Faults.
	FaultSchedule = fault.Schedule
	// FaultEvent is one scheduled fault transition.
	FaultEvent = fault.Event
	// FaultPolicy selects what happens to in-flight packets whose committed
	// path crosses a failing link.
	FaultPolicy = fault.Policy
	// FaultChurn is a seeded Markov up/down process over links and routers
	// that expands into a FaultSchedule at run start; see Experiment.Churn.
	FaultChurn = fault.Churn
	// Reliability configures NI-level end-to-end reliable delivery
	// (acknowledgements, deduplication, bounded retransmission); see
	// Experiment.Reliable.
	Reliability = network.Reliability
	// FailureObserver is implemented by workloads that want to hear about
	// packets abandoned by the reliability layer.
	FailureObserver = network.FailureObserver
)

// Fault event kinds and in-flight policies.
const (
	LinkDown     = fault.LinkDown
	LinkUp       = fault.LinkUp
	RouterDown   = fault.RouterDown
	RouterUp     = fault.RouterUp
	FaultDrop    = fault.Drop
	FaultReroute = fault.Reroute
)

// Observe configures the observability layer of an Experiment. The zero
// value disables everything; each probe is independent.
type Observe struct {
	// Window enables cycle-windowed time-series sampling with the given
	// window length in cycles (0 = off); the newest 4096 windows are kept.
	Window int
	// Trace enables the flit-lifecycle event tracer.
	Trace bool
	// TraceCap bounds the retained events (ring buffer); 0 selects 1<<17.
	TraceCap int
	// Stages times each phase of every router tick (Network.Stages).
	Stages bool
}

// Experiment describes one simulation configuration. Zero values select the
// paper's defaults (4 VCs, 4-flit buffers, 1000-cycle warmup, 10000-cycle
// measurement, seed 1).
type Experiment struct {
	Topology Topology
	Scheme   Scheme
	Routing  Algorithm
	Policy   Policy
	// StaticKey selects the static-VA hash (destination by default).
	StaticKey vcalloc.StaticKey
	NumVCs    int
	BufDepth  int
	Seed      uint64
	// UseEVC replaces the router with the Express-Virtual-Channel
	// comparison baseline (§7.B); see validate for what it requires.
	UseEVC bool
	// NaiveKernel disables the active-set scheduler and ticks every router
	// every cycle (the seed simulator's reference loop). Results are
	// bit-identical either way; the flag exists for the determinism harness
	// and kernel benchmarks.
	NaiveKernel bool
	// Faults declares a deterministic fault schedule for the run: every event
	// cycle is absolute (warmup cycles count), and the schedule must satisfy
	// fault.Schedule.Validate on the experiment's topology — Build panics on
	// structurally invalid schedules, while the Spec path rejects them with an
	// error before anything is built. Nil or empty disables fault injection
	// entirely (and hashes identically to an absent schedule in the service's
	// canonical cache keys).
	Faults *FaultSchedule
	// Churn declares a seeded stochastic fault process instead of an explicit
	// schedule: Build expands it deterministically into a FaultSchedule over
	// the run's horizon (warmup + measure). Like Faults it is a model
	// parameter and participates in canonical specs and cache keys — as its
	// compact parameters, not the expanded events. Mutually exclusive with
	// Faults (validate); Build panics when expansion fails (the Spec path
	// rejects that with an error first). Nil or all-zero fail probabilities
	// disable it.
	Churn *FaultChurn
	// Reliable enables NI-level end-to-end reliable delivery: sequenced
	// packets, receiver acks and dedup, sender retransmission with capped
	// exponential backoff and a bounded retry budget. A model parameter (acks
	// share the network with data), so it participates in canonical specs and
	// cache keys. Zero-valued fields select the documented defaults.
	Reliable *Reliability
	// Observe opts into the observability layer (windowed time series,
	// lifecycle tracing). Zero value: all off.
	Observe Observe

	Warmup  int // warmup cycles before measurement
	Measure int // measured cycles
}

// Result carries the measurements the paper reports.
type Result struct {
	AvgLatency    float64 // packet latency incl. source queueing, cycles
	AvgNetLatency float64 // injection -> ejection, cycles
	LatencyP50    uint64  // packet-latency percentiles, cycles
	LatencyP95    uint64
	LatencyP99    uint64
	AvgHops       float64
	Reusability   float64 // fraction of traversals reusing a pseudo-circuit
	BypassRate    float64 // fraction of traversals bypassing the buffer
	XbarLocality  float64 // Fig. 1 crossbar-connection temporal locality
	E2ELocality   float64 // Fig. 1 end-to-end temporal locality
	Throughput    float64 // delivered flits/node/cycle

	EnergyPJ   float64 // total router energy over the measured window
	BufferPJ   float64
	CrossbarPJ float64
	ArbiterPJ  float64

	PacketsDelivered uint64
	FlitsDelivered   uint64
	Cycles           int

	// Fault accounting; zero on fault-free runs.
	FaultEvents       uint64 // schedule events applied in the measured window
	PacketsDropped    uint64 // packets killed by faults
	FlitsDropped      uint64 // flits recycled by fault purges
	PacketsRerouted   uint64 // packets salvaged under the reroute policy
	PCFaultTerminated uint64 // pseudo-circuits torn down by faults

	// Reliability accounting; zero when reliable delivery is off.
	PacketsRetransmitted uint64 // sender timeout re-injections
	AcksSent             uint64 // receiver acknowledgements injected
	AcksReceived         uint64 // acknowledgements that made it back
	DuplicatesDropped    uint64 // retransmitted copies deduplicated at the receiver
	DeliveryFailed       uint64 // packets abandoned after the retry budget
}

func (e Experiment) defaults() Experiment {
	if e.NumVCs == 0 {
		e.NumVCs = 4
	}
	if e.BufDepth == 0 {
		e.BufDepth = 4
	}
	if e.Seed == 0 {
		e.Seed = 1
	}
	if e.Warmup == 0 {
		e.Warmup = 1000
	}
	if e.Measure == 0 {
		e.Measure = 10000
	}
	return e
}

// Protocol returns the warmup and measured cycle counts the run methods
// will use after applying defaults (for progress reporting).
func (e Experiment) Protocol() (warmup, measure int) {
	e = e.defaults()
	return e.Warmup, e.Measure
}

// BufferSlots returns the flit slots of every router's input buffers after
// applying defaults: Σ over routers of input ports × VCs × depth. Each slot
// is a pointer in the network's router slab, so a caller bounding a run's
// memory bounds this.
func (e Experiment) BufferSlots() int {
	e = e.defaults()
	in := 0
	for r := range e.Topology.Routers() {
		in += e.Topology.InPorts(r)
	}
	return in * e.NumVCs * e.BufDepth
}

// faultTopo returns the topology as the grid faults and churn are declared
// on; MECS and the flattened butterfly are not one.
func (e Experiment) faultTopo() (fault.Topo, error) {
	ft, ok := e.Topology.(fault.Topo)
	if !ok {
		return nil, fmt.Errorf("noc: topology %s does not support faults or churn", topologyName(e.Topology))
	}
	return ft, nil
}

// validate is the one list of model rules: what an Experiment must satisfy
// to build and run without a panic from a lower layer. Spec.Experiment
// returns its error, Build panics with it. How large and how long a run may
// be is not a model rule but the caller's bound: see internal/service.
func (e Experiment) validate() error {
	d := e.defaults()
	t := e.Topology
	faults := e.Faults != nil && len(e.Faults.Events) > 0
	churn := e.Churn != nil && e.Churn.Enabled()
	radix := 0
	for r := 0; r < t.Routers(); r++ {
		radix = max(radix, t.InPorts(r), t.OutPorts(r))
	}
	switch {
	case e.NumVCs < 0 || e.BufDepth < 0 || e.Warmup < 0 || e.Measure < 0:
		return fmt.Errorf("noc: negative parameter (numVCs %d, bufDepth %d, warmup %d, measure %d)",
			e.NumVCs, e.BufDepth, e.Warmup, e.Measure)
	case d.NumVCs > core.LaneLimit || radix > core.LaneLimit:
		return fmt.Errorf("noc: %d VCs on a %d-port router exceed the %d-lane limit", d.NumVCs, radix, core.LaneLimit)
	case d.BufDepth > core.DepthLimit:
		return fmt.Errorf("noc: bufDepth %d exceeds the %d-flit depth limit", d.BufDepth, core.DepthLimit)
	case e.Routing == O1TURN && d.NumVCs%2 != 0:
		return fmt.Errorf("noc: O1TURN splits the VCs between its two classes; %d is odd", d.NumVCs)
	case faults && churn:
		return fmt.Errorf("noc: faults and churn are mutually exclusive")
	}
	if faults || churn {
		if _, err := e.faultTopo(); err != nil {
			return err
		}
	}
	if e.UseEVC {
		_, mesh := t.(*topology.Mesh)
		switch nEVC := d.NumVCs / 2; {
		case e.Scheme.Pseudo:
			return fmt.Errorf("noc: UseEVC is a comparison baseline; scheme must be baseline")
		case !mesh:
			return fmt.Errorf("noc: UseEVC requires a mesh or cmesh topology, got %s", topologyName(t))
		case e.Routing == O1TURN:
			return fmt.Errorf("noc: UseEVC requires single-class routing (xy or yx)")
		case nEVC < 2 || nEVC%2 != 0:
			return fmt.Errorf("noc: UseEVC makes half the VCs express and needs an even number of them, at least 2; got %d of %d", nEVC, d.NumVCs)
		}
	}
	return nil
}

// Build constructs the network for this experiment without running it. It
// panics on an experiment validate rejects.
func (e Experiment) Build() *Network {
	if err := e.validate(); err != nil {
		panic(err.Error())
	}
	e = e.defaults()
	cfg := network.Config{
		Topo:      e.Topology,
		Algorithm: e.Routing,
		Policy:    e.Policy,
		StaticKey: e.StaticKey,
		NumVCs:    e.NumVCs,
		BufDepth:  e.BufDepth,
		Opts:      core.DefaultOptions(e.Scheme),
		Seed:      e.Seed,
		Naive:     e.NaiveKernel,
		Faults:    e.Faults,
		Reliable:  e.Reliable,
	}
	if e.Churn != nil && e.Churn.Enabled() {
		sched, err := e.Churn.Expand(e.Topology.(fault.Topo), int64(e.Warmup+e.Measure))
		if err != nil {
			panic("noc: " + err.Error())
		}
		cfg.Faults = sched
	}
	if e.Observe.Window > 0 {
		cfg.Series = stats.NewSeries(e.Observe.Window, 4096)
	}
	if e.Observe.Trace {
		tcap := e.Observe.TraceCap
		if tcap == 0 {
			tcap = 1 << 17
		}
		cfg.Tracer = obs.NewTracer(tcap)
	}
	if e.Observe.Stages {
		cfg.Stages = new(router.StageClock)
	}
	if e.UseEVC {
		m := e.Topology.(*topology.Mesh)
		nEVC := e.NumVCs / 2
		cfg.NIVCLimit = e.NumVCs - nEVC
		cfg.Factory = func(id, in, out int, rcfg *router.Config) network.Node {
			return evc.New(id, in, out, rcfg, m, nEVC)
		}
	}
	return network.New(cfg)
}

// Run executes the experiment against an arbitrary workload.
func (e Experiment) Run(w Workload) Result {
	return e.RunOn(e.Build(), w)
}

// RunOn executes the experiment's warmup/measure protocol on an
// already-built network (from Build), leaving the network available for
// post-run inspection (e.g. Network.LinkLoads, Network.Registry).
func (e Experiment) RunOn(n *Network, w Workload) Result {
	return e.RunOnObserved(n, w, 0, nil)
}

// RunOnObserved is RunOn with RunWindows' chunks of every cycles and its
// hook fn. It stays for its one caller, the benchmark's traced job
// (bench/trace.go): the benchmark module changes only together with the
// benchmark's definition, and that change can move it onto RunWindows.
func (e Experiment) RunOnObserved(n *Network, w Workload, every int, fn func(n *Network)) Result {
	out, _ := e.RunWindows(context.Background(), n, w, nil, every, fn) // never cancelled
	return out[0]
}

// RunWindows is the one measurement protocol behind every run: warm up,
// then for each window reset the statistics, run it and collect its Result.
// Nil windows mean the one window of Measure cycles. Fault schedules use
// absolute cycles, so an event lands in whichever window contains it.
//
// Every phase runs in chunks of at most every cycles (every <= 0: the
// whole phase in one). ctx is polled before each chunk, so a cancelled run
// stops within one chunk: it returns ctx.Err() and leaves the network
// mid-run. fn, when not nil, is called after every chunk, on the
// simulation goroutine while the network is between Steps; with every <= 0
// that is after warmup and after each window, and n.Now() tells which.
// Chunking never changes the cycle sequence, so the Results do not depend
// on every.
func (e Experiment) RunWindows(ctx context.Context, n *Network, w Workload, windows []int, every int, fn func(n *Network)) ([]Result, error) {
	e = e.defaults()
	if windows == nil {
		windows = []int{e.Measure}
	}
	phase := func(total int) error {
		for done := 0; done < total; {
			if err := ctx.Err(); err != nil {
				return err
			}
			c := total - done
			if every > 0 && every < c {
				c = every
			}
			n.Run(w, c)
			done += c
			if fn != nil {
				fn(n)
			}
		}
		return nil
	}
	if err := phase(e.Warmup); err != nil {
		return nil, err
	}
	out := make([]Result, len(windows))
	for i, c := range windows {
		n.ResetStats()
		if err := phase(c); err != nil {
			return nil, err
		}
		out[i] = collect(n, c)
	}
	return out, nil
}

// WriteMetricsJSONL writes the network's per-router counters, time-series
// windows and global counters as JSONL (see internal/stats for the schema).
// Without Observe.Window there are no window lines.
func WriteMetricsJSONL(w io.Writer, n *Network) error {
	return stats.WriteMetricsJSONL(w, n.Registry(), n.Series(), n.Stats)
}

// ValidateMetricsJSONL checks a metrics JSONL stream against the export
// schema, including the per-router-sums-to-global cross-check. It returns
// the number of lines validated.
func ValidateMetricsJSONL(r io.Reader) (int, error) {
	return stats.ValidateMetricsJSONL(r)
}

// SyntheticWorkload builds the synthetic workload for this experiment's
// topology without running it (for callers driving the Network directly).
// It panics on a workload WorkloadSpec.Normalize would refuse, as Build
// panics on an invalid experiment.
func (e Experiment) SyntheticWorkload(s Synthetic) Workload {
	e = e.defaults()
	if err := s.check(e.Topology.Nodes()); err != nil {
		panic(err.Error())
	}
	return traffic.NewSynthetic(traffic.Config{
		Pattern:    s.Pattern,
		Nodes:      e.Topology.Nodes(),
		Rate:       s.Rate,
		PacketSize: s.PacketSize,
	}, sim.NewRNG(e.Seed^0xABCD))
}

// CMPWorkload builds the closed-loop CMP workload for the named benchmark
// without running it.
func (e Experiment) CMPWorkload(benchmark string) (Workload, error) {
	e = e.defaults()
	prof, ok := cmp.ProfileByName(benchmark)
	if !ok {
		return nil, fmt.Errorf("noc: unknown benchmark %q (have %v)", benchmark, CMPBenchmarks())
	}
	return cmp.New(e.Topology, cmp.PaperTableI(), prof, sim.NewRNG(e.Seed^0x51ED)), nil
}

// RunSynthetic executes the experiment with a synthetic pattern.
func (e Experiment) RunSynthetic(s Synthetic) Result {
	return e.Run(e.SyntheticWorkload(s))
}

// CMPBenchmarks lists the benchmark profile names usable with RunCMP, in the
// paper's reporting order.
func CMPBenchmarks() []string {
	ps := cmp.Profiles()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}

// RunCMP executes the experiment against the closed-loop CMP substrate with
// the named benchmark profile. The topology must host 64 terminals (32
// cores + 32 L2 banks), e.g. CMesh(4,4,4) or Mesh(8,8).
func (e Experiment) RunCMP(benchmark string) (Result, error) {
	w, err := e.CMPWorkload(benchmark)
	if err != nil {
		return Result{}, err
	}
	return e.Run(w), nil
}

func collect(n *Network, cycles int) Result {
	s, t, m := n.Stats, n.Registry().Totals(), n.Energy()
	p50, p95, p99 := s.LatencyHist.Quantiles()
	return Result{
		AvgLatency:       s.AvgLatency(),
		AvgNetLatency:    s.AvgNetLatency(),
		LatencyP50:       p50,
		LatencyP95:       p95,
		LatencyP99:       p99,
		AvgHops:          s.AvgHops(),
		Reusability:      t.Reusability(),
		BypassRate:       t.BypassRate(),
		XbarLocality:     t.XbarLocality(),
		E2ELocality:      s.E2ELocality(),
		Throughput:       s.Throughput(n.Nodes()),
		EnergyPJ:         m.Total(),
		BufferPJ:         m.BufferEnergy(),
		CrossbarPJ:       m.CrossbarEnergy(),
		ArbiterPJ:        m.ArbiterEnergy(),
		PacketsDelivered: s.PacketsDelivered,
		FlitsDelivered:   s.FlitsDelivered,
		Cycles:           cycles,

		FaultEvents:       s.FaultEvents,
		PacketsDropped:    s.PacketsDropped,
		FlitsDropped:      s.FlitsDropped,
		PacketsRerouted:   s.PacketsRerouted,
		PCFaultTerminated: s.PCFaultTerminated,

		PacketsRetransmitted: s.PacketsRetransmitted,
		AcksSent:             s.AcksSent,
		AcksReceived:         s.AcksReceived,
		DuplicatesDropped:    s.DuplicatesDropped,
		DeliveryFailed:       s.DeliveryFailed,
	}
}
