package noc

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"pseudocircuit/internal/cmp"
	"pseudocircuit/internal/fault"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/vcalloc"
)

// Spec is the serializable form of an Experiment, for config files and
// machine-driven sweeps. All fields use the human-readable names the CLI
// tools accept; zero values select the paper defaults.
type Spec struct {
	// Topology is "mesh<KX>x<KY>", "cmesh<KX>x<KY>x<C>", "mecs<KX>x<KY>x<C>"
	// or "fbfly<KX>x<KY>x<C>".
	Topology string `json:"topology"`
	// Scheme is "baseline", "pseudo", "pseudo+s", "pseudo+b" or
	// "pseudo+s+b".
	Scheme string `json:"scheme"`
	// Routing is "xy", "yx" or "o1turn".
	Routing string `json:"routing,omitempty"`
	// VA is "dynamic" or "static".
	VA string `json:"va,omitempty"`
	// StaticKey is "destination" (default) or "flow".
	StaticKey string `json:"staticKey,omitempty"`
	NumVCs    int    `json:"numVCs,omitempty"`
	BufDepth  int    `json:"bufDepth,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	UseEVC    bool   `json:"useEVC,omitempty"`
	Warmup    int    `json:"warmup,omitempty"`
	Measure   int    `json:"measure,omitempty"`
	// Faults declares a deterministic fault schedule. A model parameter:
	// SpecOf renders it canonically (sorted events, defaults elided), so it
	// participates in cache keys.
	Faults *FaultSpec `json:"faults,omitempty"`
	// Churn declares a seeded stochastic fault process (mutually exclusive
	// with Faults). A model parameter: the compact (seed, probabilities)
	// tuple is rendered canonically and participates in cache keys — two
	// specs with the same churn parameters expand to the same schedule, so
	// caching on the parameters is exact.
	Churn *ChurnSpec `json:"churn,omitempty"`
	// Reliable enables end-to-end reliable delivery. A model parameter
	// (acks are real traffic): SpecOf renders it with defaults filled, so
	// explicit defaults and the zero form hash identically.
	Reliable *ReliableSpec `json:"reliable,omitempty"`
}

// ChurnSpec is the serializable form of a fault-churn process.
type ChurnSpec struct {
	Seed uint64 `json:"seed,omitempty"`
	// Per-cycle transition probabilities in [0, 1]; a zero fail probability
	// disables that target class, a zero repair probability with a nonzero
	// fail probability makes those faults permanent.
	LinkFail     float64 `json:"linkFail,omitempty"`
	LinkRepair   float64 `json:"linkRepair,omitempty"`
	RouterFail   float64 `json:"routerFail,omitempty"`
	RouterRepair float64 `json:"routerRepair,omitempty"`
	// Drop selects the in-flight packet policy: "drop" (default) or
	// "reroute".
	Drop string `json:"drop,omitempty"`
}

// ReliableSpec is the serializable form of a Reliability configuration.
// Zero fields select the documented defaults.
type ReliableSpec struct {
	Timeout    int `json:"timeout,omitempty"`
	MaxTimeout int `json:"maxTimeout,omitempty"`
	Budget     int `json:"budget,omitempty"`
}

// Churn converts and validates the churn spec against an experiment's
// topology and run length, including a trial expansion so degenerate
// parameters (event-count overflow) surface as an error at the spec boundary
// rather than a panic in Build. A nil or disabled spec yields nil.
func (cs *ChurnSpec) Churn(e Experiment) (*FaultChurn, error) {
	if cs == nil {
		return nil, nil
	}
	pol, ok := fault.PolicyByName(strings.ToLower(cs.Drop))
	if !ok {
		return nil, fmt.Errorf("noc: unknown fault drop policy %q", cs.Drop)
	}
	c := &FaultChurn{
		Seed:         cs.Seed,
		LinkFail:     cs.LinkFail,
		LinkRepair:   cs.LinkRepair,
		RouterFail:   cs.RouterFail,
		RouterRepair: cs.RouterRepair,
		Policy:       pol,
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if !c.Enabled() {
		return nil, nil
	}
	ft, err := e.faultTopo()
	if err != nil {
		return nil, err
	}
	d := e.defaults()
	if _, err := c.Expand(ft, int64(d.Warmup+d.Measure)); err != nil {
		return nil, err
	}
	return c, nil
}

// FaultSpec is the serializable form of a fault schedule.
type FaultSpec struct {
	// Drop selects the in-flight packet policy: "drop" (default) or
	// "reroute".
	Drop string `json:"drop,omitempty"`
	// Events are the schedule's transitions, in any order; the schedule is
	// canonicalized (sorted, validated) when the spec is materialized.
	Events []FaultEventSpec `json:"events"`
}

// FaultEventSpec is one fault transition. Cycles are absolute simulation
// cycles (warmup counts) and must fall inside the run, every down needs a
// matching later up, and link ports are the direction ports 0..3 (E, W, N,
// S) that are wired on the grid.
type FaultEventSpec struct {
	Cycle  int64  `json:"cycle"`
	Kind   string `json:"kind"` // "link-down", "link-up", "router-down", "router-up"
	Router int    `json:"router"`
	Port   int    `json:"port,omitempty"`
}

// Schedule converts and validates the fault spec against an experiment's
// topology and run length (warmup + measure, after defaults): event names are
// resolved case-insensitively and the schedule must satisfy its structural
// invariants (see FaultEventSpec). A nil or empty spec yields a nil schedule.
// The experiment's Faults field is ignored; callers assign the returned
// schedule themselves.
func (fs *FaultSpec) Schedule(e Experiment) (*FaultSchedule, error) {
	if fs == nil || len(fs.Events) == 0 {
		return nil, nil
	}
	pol, ok := fault.PolicyByName(strings.ToLower(fs.Drop))
	if !ok {
		return nil, fmt.Errorf("noc: unknown fault drop policy %q", fs.Drop)
	}
	sched := &FaultSchedule{Policy: pol}
	for _, ev := range fs.Events {
		k, ok := fault.KindByName(strings.ToLower(ev.Kind))
		if !ok {
			return nil, fmt.Errorf("noc: unknown fault event kind %q", ev.Kind)
		}
		sched.Events = append(sched.Events, FaultEvent{
			Cycle: ev.Cycle, Kind: k, Router: ev.Router, Port: ev.Port,
		})
	}
	ft, err := e.faultTopo()
	if err != nil {
		return nil, err
	}
	d := e.defaults()
	if err := sched.Validate(ft, int64(d.Warmup+d.Measure)); err != nil {
		return nil, err
	}
	return sched, nil
}

// WorkloadSpec is the serializable form of a workload, the counterpart of
// Spec for the traffic side of an experiment. The zero value selects the
// paper's default: uniform-random synthetic traffic with 5-flit packets.
type WorkloadSpec struct {
	// Kind is "synthetic" (default) or "cmp".
	Kind string `json:"kind,omitempty"`
	// Pattern is "uniform", "bitcomp" or "transpose" (synthetic only).
	Pattern string `json:"pattern,omitempty"`
	// Rate is the per-node flit injection rate (synthetic only).
	Rate float64 `json:"rate,omitempty"`
	// PacketSize is the flit count per packet; 0 selects the paper's 5.
	PacketSize int `json:"packetSize,omitempty"`
	// Benchmark names a CMP profile (kind "cmp" only).
	Benchmark string `json:"benchmark,omitempty"`
}

// Normalize validates the spec against the experiment it will drive (which
// supplies the topology) and fills every defaulted field with its canonical
// value (lowercased names, paper defaults), so that two semantically
// identical specs normalize to identical structs. It is the basis of
// content-addressed result caching in the simulation service.
func (w WorkloadSpec) Normalize(e Experiment) (WorkloadSpec, error) {
	nodes := e.Topology.Nodes()
	switch strings.ToLower(w.Kind) {
	case "", "synthetic":
		w.Kind = "synthetic"
		p, err := ParsePattern(w.Pattern)
		if err != nil {
			return w, err
		}
		w.Pattern = p.String()
		if side := int(math.Sqrt(float64(nodes))); p == BitPermutation && side*side != nodes {
			return w, fmt.Errorf("noc: transpose needs a square node count, %s has %d", topologyName(e.Topology), nodes)
		}
		if w.Benchmark != "" {
			return w, fmt.Errorf("noc: synthetic workload cannot name a benchmark (%q)", w.Benchmark)
		}
		if w.Rate <= 0 || w.Rate > 1 {
			return w, fmt.Errorf("noc: synthetic injection rate %v outside (0, 1]", w.Rate)
		}
		if w.PacketSize < 0 {
			return w, fmt.Errorf("noc: negative packet size %d", w.PacketSize)
		}
		if w.PacketSize == 0 {
			w.PacketSize = 5
		}
	case "cmp":
		w.Kind = "cmp"
		if w.Pattern != "" || w.Rate != 0 || w.PacketSize != 0 {
			return w, fmt.Errorf("noc: cmp workload takes only a benchmark, not synthetic fields")
		}
		prof, ok := cmp.ProfileByName(w.Benchmark)
		if !ok {
			return w, fmt.Errorf("noc: unknown benchmark %q (have %v)", w.Benchmark, CMPBenchmarks())
		}
		w.Benchmark = prof.Name // the table's string, not the caller's
		if cfg := cmp.PaperTableI(); nodes != cfg.Cores+cfg.L2Banks {
			return w, fmt.Errorf("noc: cmp workloads need a %d-terminal topology, %s has %d",
				cfg.Cores+cfg.L2Banks, topologyName(e.Topology), nodes)
		}
	default:
		return w, fmt.Errorf("noc: unknown workload kind %q", w.Kind)
	}
	return w, nil
}

// Workload materializes the spec against an experiment (which supplies the
// topology and seed). Callers should Normalize first; Workload normalizes
// again defensively.
func (w WorkloadSpec) Workload(e Experiment) (Workload, error) {
	w, err := w.Normalize(e)
	if err != nil {
		return nil, err
	}
	if w.Kind == "cmp" {
		return e.CMPWorkload(w.Benchmark)
	}
	p, _ := ParsePattern(w.Pattern) // a normalized name
	return e.SyntheticWorkload(Synthetic{Pattern: p, Rate: w.Rate, PacketSize: w.PacketSize}), nil
}

// ParsePattern resolves a synthetic traffic-pattern name (long form or the
// paper's two-letter abbreviation); empty selects uniform random.
func ParsePattern(s string) (Pattern, error) {
	switch strings.ToLower(s) {
	case "", "uniform", "ur":
		return UniformRandom, nil
	case "bitcomp", "bc":
		return BitComplement, nil
	case "transpose", "bp":
		return BitPermutation, nil
	default:
		return UniformRandom, fmt.Errorf("noc: unknown traffic pattern %q", s)
	}
}

// ParseTopologyName splits a topology name of the forms Spec.Topology
// documents into its kind ("mesh", "cmesh", "mecs" or "fbfly"), grid
// dimensions and concentration (1 for a mesh). It constructs nothing, so a
// caller facing untrusted input can bound the dimensions before
// ParseTopology allocates in proportion to them.
func ParseTopologyName(s string) (kind string, kx, ky, c int, err error) {
	for _, kind = range []string{"mesh", "cmesh", "mecs", "fbfly"} {
		if !strings.HasPrefix(s, kind) {
			continue
		}
		c = 1
		format, dims := kind+"%dx%dx%d", []any{&kx, &ky, &c}
		if kind == "mesh" {
			format, dims = "mesh%dx%d", dims[:2]
		}
		if n, serr := fmt.Sscanf(s, format, dims...); n == len(dims) && serr == nil {
			return kind, kx, ky, c, nil
		}
		break
	}
	return "", 0, 0, 0, fmt.Errorf("noc: unknown topology %q", s)
}

// ParseTopology resolves a topology name of the forms Spec.Topology
// documents. The smallest grid is 2x2 routers with one terminal each.
func ParseTopology(s string) (Topology, error) {
	kind, kx, ky, c, err := ParseTopologyName(s)
	if err != nil {
		return nil, err
	}
	if kx < 2 || ky < 2 || c < 1 {
		return nil, fmt.Errorf("noc: topology %q is smaller than a 2x2 grid of 1-terminal routers", s)
	}
	switch kind {
	case "mesh":
		return topology.NewMesh(kx, ky), nil
	case "cmesh":
		return topology.NewCMesh(kx, ky, c), nil
	case "mecs":
		return topology.NewMECS(kx, ky, c), nil
	default:
		return topology.NewFBFly(kx, ky, c), nil
	}
}

// topologyName prints a topology in ParseTopologyName's grammar, from the
// value's own kind, grid and concentration, so the name parses back to this
// topology and no other.
func topologyName(t Topology) string {
	kx, ky := t.Dims()
	if t.Name() == "mesh" {
		return fmt.Sprintf("mesh%dx%d", kx, ky)
	}
	return fmt.Sprintf("%s%dx%dx%d", t.Name(), kx, ky, t.Concentration())
}

// schemeNames and routingNames are the canonical names ParseScheme and
// Spec.Experiment accept and SpecOf prints: constants, so a canonical spec
// shares its name strings with every other.
var (
	schemeNames = map[Scheme]string{Baseline: "baseline", Pseudo: "pseudo",
		PseudoS: "pseudo+s", PseudoB: "pseudo+b", PseudoSB: "pseudo+s+b"}
	routingNames = map[routing.Algorithm]string{routing.XY: "xy", routing.YX: "yx", routing.O1TURN: "o1turn"}
)

// nameOf is v's canonical name in names, or its String lowercased when it
// has none.
func nameOf[K interface {
	comparable
	String() string
}](names map[K]string, v K) string {
	if n, ok := names[v]; ok {
		return n
	}
	return strings.ToLower(v.String())
}

// byName resolves a case-insensitive name from names; empty selects def.
func byName[K comparable](names map[K]string, s string, def K) (K, bool) {
	if s == "" {
		return def, true
	}
	s = strings.ToLower(s)
	for k, n := range names {
		if n == s {
			return k, true
		}
	}
	return def, false
}

// ParseScheme resolves a scheme name.
func ParseScheme(s string) (Scheme, error) {
	sc, ok := byName(schemeNames, s, Baseline)
	if !ok {
		return Baseline, fmt.Errorf("noc: unknown scheme %q", s)
	}
	return sc, nil
}

// Experiment materializes the spec. It is total: a spec it accepts builds
// and runs without panicking (Experiment.validate is the rule list).
func (s Spec) Experiment() (Experiment, error) {
	var e Experiment
	t, err := ParseTopology(s.Topology)
	if err != nil {
		return e, err
	}
	e.Topology = t
	if e.Scheme, err = ParseScheme(s.Scheme); err != nil {
		return e, err
	}
	var ok bool
	if e.Routing, ok = byName(routingNames, s.Routing, routing.XY); !ok {
		return e, fmt.Errorf("noc: unknown routing %q", s.Routing)
	}
	switch strings.ToLower(s.VA) {
	case "", "dynamic":
		e.Policy = vcalloc.Dynamic
	case "static":
		e.Policy = vcalloc.Static
	default:
		return e, fmt.Errorf("noc: unknown VA policy %q", s.VA)
	}
	switch strings.ToLower(s.StaticKey) {
	case "", "destination":
		e.StaticKey = vcalloc.KeyDestination
	case "flow":
		e.StaticKey = vcalloc.KeyFlow
	default:
		return e, fmt.Errorf("noc: unknown static key %q", s.StaticKey)
	}
	e.NumVCs = s.NumVCs
	e.BufDepth = s.BufDepth
	e.Seed = s.Seed
	e.UseEVC = s.UseEVC
	e.Warmup = s.Warmup
	e.Measure = s.Measure
	if e.Faults, err = s.Faults.Schedule(e); err != nil {
		return e, err
	}
	if e.Churn, err = s.Churn.Churn(e); err != nil {
		return e, err
	}
	if s.Reliable != nil {
		r := *s.Reliable
		if r.Timeout < 0 || r.MaxTimeout < 0 || r.Budget < 0 {
			return e, fmt.Errorf("noc: negative reliable parameter %+v", r)
		}
		if r.Timeout > 0 && r.MaxTimeout > 0 && r.MaxTimeout < r.Timeout {
			return e, fmt.Errorf("noc: reliable maxTimeout %d below timeout %d", r.MaxTimeout, r.Timeout)
		}
		e.Reliable = &Reliability{Timeout: r.Timeout, MaxTimeout: r.MaxTimeout, Budget: r.Budget}
	}
	return e, e.validate()
}

// SpecOf renders an experiment back to its spec (for reports).
func SpecOf(e Experiment) Spec {
	e = e.defaults()
	s := Spec{
		Topology: topologyName(e.Topology),
		Scheme:   nameOf(schemeNames, e.Scheme),
		Routing:  nameOf(routingNames, e.Routing),
		VA:       strings.TrimSuffix(e.Policy.String(), "VA"),
		NumVCs:   e.NumVCs,
		BufDepth: e.BufDepth,
		Seed:     e.Seed,
		UseEVC:   e.UseEVC,
		Warmup:   e.Warmup,
		Measure:  e.Measure,
	}
	if e.StaticKey == vcalloc.KeyFlow {
		s.StaticKey = "flow"
	}
	// Faults change results, so they are rendered — canonically: events
	// sorted, the default drop policy and empty schedules elided — and
	// therefore reach the cache key.
	if e.Faults != nil && len(e.Faults.Events) > 0 {
		sched := FaultSchedule{
			Policy: e.Faults.Policy,
			Events: append([]FaultEvent(nil), e.Faults.Events...),
		}
		sched.Canon()
		fs := &FaultSpec{Events: make([]FaultEventSpec, len(sched.Events))}
		if sched.Policy != fault.Drop {
			fs.Drop = sched.Policy.String()
		}
		for i, ev := range sched.Events {
			fs.Events[i] = FaultEventSpec{
				Cycle: ev.Cycle, Kind: ev.Kind.String(), Router: ev.Router, Port: ev.Port,
			}
		}
		s.Faults = fs
	}
	// Churn renders as its compact parameters (never the expanded events):
	// the expansion is a pure function of them, so the parameters alone key
	// the cache exactly. Disabled churn is elided entirely, like an empty
	// fault schedule.
	if e.Churn != nil && e.Churn.Enabled() {
		cs := &ChurnSpec{
			Seed:         e.Churn.Seed,
			LinkFail:     e.Churn.LinkFail,
			LinkRepair:   e.Churn.LinkRepair,
			RouterFail:   e.Churn.RouterFail,
			RouterRepair: e.Churn.RouterRepair,
		}
		if e.Churn.Policy != fault.Drop {
			cs.Drop = e.Churn.Policy.String()
		}
		s.Churn = cs
	}
	// Reliability renders with defaults filled, so an explicit default and
	// the zero form produce one canonical spec (and one cache key).
	if e.Reliable != nil {
		r := ReliableSpec{
			Timeout:    e.Reliable.Timeout,
			MaxTimeout: e.Reliable.MaxTimeout,
			Budget:     e.Reliable.Budget,
		}
		if r.Timeout <= 0 {
			r.Timeout = network.DefaultRelTimeout
		}
		if r.MaxTimeout <= 0 {
			r.MaxTimeout = network.DefaultRelMaxTimeout
		}
		if r.MaxTimeout < r.Timeout {
			r.MaxTimeout = r.Timeout
		}
		if r.Budget <= 0 {
			r.Budget = network.DefaultRelBudget
		}
		s.Reliable = &r
	}
	return s
}

// String renders the spec as its JSON encoding.
func (s Spec) String() string {
	b, err := json.Marshal(s)
	if err != nil {
		return fmt.Sprintf("Spec{%v}", err)
	}
	return string(b)
}
