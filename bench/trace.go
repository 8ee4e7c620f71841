package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/evc"
	"pseudocircuit/internal/flit"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/router"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
	"pseudocircuit/noc"
)

// The traced run times every layer from outside, through the seams the
// simulator already has: network.Config.Factory wraps each router,
// network.Workload wraps the traffic source, and RunOnObserved's callback
// marks the warmup/measure boundary. Nothing inside the simulator changes,
// and the traced Result must equal the untraced one.

var traceEpoch = time.Now()

// nowNS is the trace clock: monotonic nanoseconds since process start.
func nowNS() int64 { return int64(time.Since(traceEpoch)) }

// clock accumulates one call group: total nanoseconds between the two clock
// reads of each call, and the number of calls.
type clock struct{ ns, calls int64 }

func (c clock) minus(o clock) clock { return clock{c.ns - o.ns, c.calls - o.calls} }
func (c clock) plus(o clock) clock  { return clock{c.ns + o.ns, c.calls + o.calls} }

// timerCost is what timing one call costs. pair is the whole cost as the
// enclosing layer sees it — two clock reads, the wrapper's extra call — and
// inner is the part that lands between the two reads and so inside the timed
// layer itself. A router tick is a few hundred ns, so leaving these in would
// misstate layer shares badly.
type timerCost struct{ pair, inner float64 }

// idleNode is a router that does nothing, for measuring the wrapper alone.
type idleNode struct{ network.Node }

func (idleNode) Tick(sim.Cycle) bool { return false }

// measureTimerCost ticks an idle router bare and wrapped, as the network
// would, through the Node interface: the difference is the wrapper's cost.
// The fastest of a few repeats is kept; anything slower is the host.
func measureTimerCost() timerCost {
	const n = 200_000
	var c clock
	nodes := []network.Node{idleNode{}, &timedNode{idleNode{}, &c}}
	loop := func(node network.Node) float64 {
		start := nowNS()
		for i := 0; i < n; i++ {
			node.Tick(sim.Cycle(i))
		}
		return float64(nowNS()-start) / n
	}
	best := timerCost{pair: 1e9}
	for rep := 0; rep < 5; rep++ {
		c = clock{}
		bare := loop(nodes[0])
		if p := loop(nodes[1]) - bare; p < best.pair {
			best = timerCost{pair: p, inner: float64(c.ns) / n}
		}
	}
	return best
}

// layerClocks are the call groups of one traced network.
type layerClocks struct {
	router  clock // internal/router Tick
	evc     clock // internal/evc Tick
	tick    clock // workload Tick (internal/traffic or internal/cmp)
	deliver clock // workload Deliver (internal/cmp reacts; traffic ignores)
}

func (l layerClocks) minus(o layerClocks) layerClocks {
	return layerClocks{l.router.minus(o.router), l.evc.minus(o.evc), l.tick.minus(o.tick), l.deliver.minus(o.deliver)}
}

func (l layerClocks) plus(o layerClocks) layerClocks {
	return layerClocks{l.router.plus(o.router), l.evc.plus(o.evc), l.tick.plus(o.tick), l.deliver.plus(o.deliver)}
}

func (l layerClocks) all() []clock { return []clock{l.router, l.evc, l.tick, l.deliver} }

// timedNode times Tick and forwards everything else untouched.
type timedNode struct {
	network.Node
	c *clock
}

func (t *timedNode) Tick(now sim.Cycle) bool {
	s := nowNS()
	again := t.Node.Tick(now)
	t.c.ns += nowNS() - s
	t.c.calls++
	return again
}

// timedWorkload times Tick and Deliver of the wrapped workload.
type timedWorkload struct {
	inner network.Workload
	l     *layerClocks
}

func (t *timedWorkload) Tick(now sim.Cycle, inj network.Injector) {
	s := nowNS()
	t.inner.Tick(now, inj)
	t.l.tick.ns += nowNS() - s
	t.l.tick.calls++
}

func (t *timedWorkload) Deliver(now sim.Cycle, p *flit.Packet) {
	s := nowNS()
	t.inner.Deliver(now, p)
	t.l.deliver.ns += nowNS() - s
	t.l.deliver.calls++
}

func (t *timedWorkload) Done() bool { return t.inner.Done() }

// buildTraced assembles the network noc.Experiment.Build would, with every
// router wrapped in a timedNode. Build has no factory hook, so the fields
// the benchmark's experiments use are mapped here; the traced-equals-
// untraced check on every traced job catches any drift between the two.
func buildTraced(e noc.Experiment, l *layerClocks) *network.Network {
	cfg := network.Config{
		Topo:      e.Topology,
		Algorithm: e.Routing,
		Policy:    e.Policy,
		NumVCs:    4,
		BufDepth:  4,
		Opts:      core.DefaultOptions(e.Scheme),
		Seed:      e.Seed,
		Factory: func(id, in, out int, rcfg *router.Config) network.Node {
			return &timedNode{router.New(id, in, out, rcfg), &l.router}
		},
	}
	if e.UseEVC {
		const nEVC = 2
		mesh := e.Topology.(*topology.Mesh)
		cfg.NIVCLimit = cfg.NumVCs - nEVC
		cfg.Factory = func(id, in, out int, rcfg *router.Config) network.Node {
			return &timedNode{evc.New(id, in, out, rcfg, mesh, nEVC), &l.evc}
		}
	}
	return network.New(cfg)
}

// tracedJob is the layer ledger of one traced job, in raw nanoseconds.
type tracedJob struct {
	result                          noc.Result
	start                           int64
	build, newWorkload              int64
	warmup, measure, collect, total int64
	warmupLayers, measureLayers     layerClocks
	cycles                          int
}

// runTraced is one job — build, warm up, measure, collect — with every layer
// boundary timed. mkWorkload builds the traffic source for the experiment.
func runTraced(e noc.Experiment, mkWorkload func(noc.Experiment) noc.Workload) tracedJob {
	var l layerClocks
	var j tracedJob
	j.start = nowNS()
	n := buildTraced(e, &l)
	t1 := nowNS()
	w := &timedWorkload{inner: mkWorkload(e), l: &l}
	t2 := nowNS()

	warmup, measure := e.Protocol()
	var markNS [2]int64
	var markL [2]layerClocks
	k := 0
	// One chunk per phase: the callback fires exactly twice, after warmup
	// and after measure.
	j.result = e.RunOnObserved(n, w, max(warmup, measure), func(*noc.Network) {
		markNS[k], markL[k] = nowNS(), l
		k++
	})
	t3 := nowNS()

	j.build, j.newWorkload = t1-j.start, t2-t1
	j.warmup, j.measure, j.collect = markNS[0]-t2, markNS[1]-markNS[0], t3-markNS[1]
	j.total = t3 - j.start
	j.warmupLayers, j.measureLayers = markL[0], markL[1].minus(markL[0])
	j.cycles = warmup + measure
	return j
}

// ledgerMetrics turns the ledgers of traced jobs into the per-layer time
// metrics. k converts raw to calibrated nanoseconds and traffic names the
// layer of the traffic source. It returns the jobs' summed raw time less what
// timing added to it, which is what the same jobs should take untraced.
func ledgerMetrics(m map[string]float64, ledger []tracedJob, cost timerCost, k float64, traffic string) float64 {
	var build, warmup, measure, collect, total, cycles float64
	var layers layerClocks
	for _, t := range ledger {
		build += float64(t.build)
		warmup += float64(t.warmup)
		measure += float64(t.measure)
		collect += float64(t.collect)
		total += float64(t.total)
		cycles += float64(t.cycles)
		layers = layers.plus(t.warmupLayers).plus(t.measureLayers)
	}
	// A layer's own time is what its clock read minus the timer's share of
	// each call; what is left of the run after all layers and the whole
	// timer cost is network.Step itself.
	self := func(c clock) float64 { return float64(c.ns) - cost.inner*float64(c.calls) }
	var calls, child float64
	for _, c := range layers.all() {
		calls += float64(c.calls)
		child += self(c)
	}
	jobs := float64(len(ledger))
	m["network.build_ms"] = k * build / jobs / 1e6
	m["noc.warmup_ms"] = k * warmup / jobs / 1e6
	m["noc.measure_ms"] = k * measure / jobs / 1e6
	m["noc.collect_us"] = k * collect / jobs / 1e3
	m["network.step_self_ns_per_cycle"] = k * (warmup + measure - child - cost.pair*calls) / cycles
	for prefix, c := range map[string]clock{"router": layers.router, "evc": layers.evc} {
		m[prefix+".tick_ns_per_cycle"] = k * self(c) / cycles
		m[prefix+".ticks_per_cycle"] = float64(c.calls) / cycles
		if c.calls > 0 {
			m[prefix+".ns_per_tick"] = k * self(c) / float64(c.calls)
		}
	}
	m[traffic+".tick_ns_per_cycle"] = k * self(layers.tick) / cycles
	m[traffic+".deliver_ns_per_cycle"] = k * self(layers.deliver) / cycles
	return total - cost.pair*calls
}

// span is one line of the trace file. A call-group span (calls > 1) covers
// every call of one layer inside its parent: start is the parent's start and
// dur_ns the summed duration of the calls.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a job's root span
	Job    int    `json:"job"`    // spans of one job share this
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Calls  int64  `json:"calls"`
}

// recorder holds spans in memory until the run ends.
type recorder struct{ spans []span }

func (r *recorder) add(name string, parent, job int, start, dur, calls int64) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{name, id, parent, job, start, dur, calls})
	return id
}

// addJob records the span tree of one traced job; wlName is the layer the
// traffic source belongs to.
func (r *recorder) addJob(job int, j tracedJob, wlName string) {
	root := r.add("job", 0, job, j.start, j.total, 1)
	r.add("network.build", root, job, j.start, j.build, 1)
	r.add(wlName+".new", root, job, j.start+j.build, j.newWorkload, 1)
	at := j.start + j.build + j.newWorkload
	groups := []string{"router.tick", "evc.tick", wlName + ".tick", wlName + ".deliver"}
	phase := func(name string, dur int64, l layerClocks) {
		id := r.add(name, root, job, at, dur, 1)
		child := int64(0)
		for i, c := range l.all() {
			if c.calls == 0 {
				continue
			}
			r.add(groups[i], id, job, at, c.ns, c.calls)
			child += c.ns
		}
		r.add("network.step_self", id, job, at, dur-child, 1)
		at += dur
	}
	phase("noc.warmup", j.warmup, j.warmupLayers)
	phase("noc.measure", j.measure, j.measureLayers)
	r.add("noc.collect", root, job, at, j.collect, 1)
}

func (r *recorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
