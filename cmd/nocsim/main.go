// Command nocsim runs a single on-chip-network simulation and prints its
// measurements: one (topology, scheme, routing, VA policy, workload)
// configuration per invocation.
//
// Examples:
//
//	nocsim -topo mesh8x8 -scheme pseudo+s+b -routing xy -va static \
//	       -traffic uniform -rate 0.10
//	nocsim -topo cmesh4x4x4 -scheme baseline -benchmark specjbb
//	nocsim -topo mesh8x8 -trace out.trace -metrics-out metrics.jsonl
//	nocsim -validate-trace out.trace
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"sync"

	"pseudocircuit/internal/obs"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/vcalloc"
	"pseudocircuit/internal/version"
	"pseudocircuit/noc"
)

func main() {
	var (
		topoFlag  = flag.String("topo", "cmesh4x4x4", "topology: mesh8x8, cmesh4x4x4, mecs4x4x4, fbfly4x4x4, or mesh<K>x<K>")
		scheme    = flag.String("scheme", "pseudo+s+b", "scheme: baseline, pseudo, pseudo+s, pseudo+b, pseudo+s+b")
		algo      = flag.String("routing", "xy", "routing algorithm: xy, yx, o1turn")
		policy    = flag.String("va", "static", "VC allocation: static, dynamic")
		benchmark = flag.String("benchmark", "", "CMP benchmark profile (closed-loop); empty selects synthetic traffic")
		pattern   = flag.String("traffic", "uniform", "synthetic pattern: uniform, bitcomp, transpose")
		rate      = flag.Float64("rate", 0.05, "synthetic injection rate (flits/node/cycle)")
		warmup    = flag.Int("warmup", 1000, "warmup cycles")
		measure   = flag.Int("measure", 10000, "measured cycles")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		workers   = flag.Int("workers", 0, "cycle-kernel worker goroutines per cycle (0/1 sequential); any value gives bit-identical results")
		useEVC    = flag.Bool("evc", false, "use the Express-Virtual-Channel comparison router (scheme must be baseline)")
		faults    = flag.String("faults", "", `fault schedule as inline JSON or @file, e.g. '{"events":[{"cycle":2000,"kind":"link-down","router":5},{"cycle":4000,"kind":"link-up","router":5}]}' (overrides the config file's schedule)`)
		churn     = flag.String("churn", "", `stochastic fault churn as inline JSON or @file, e.g. '{"seed":7,"linkFail":1e-5,"linkRepair":0.002}' (mutually exclusive with -faults)`)
		reliable  = flag.String("reliable", "", `end-to-end reliable delivery: "default" or inline JSON like '{"timeout":256,"maxTimeout":2048,"budget":8}'`)
		config    = flag.String("config", "", "JSON experiment spec file (overrides the individual flags)")
		jsonOut   = flag.Bool("json", false, "emit the result as JSON")
		links     = flag.Int("links", 0, "also print the N most-loaded channels")

		traceOut   = flag.String("trace", "", "write a Chrome trace_event file of flit lifecycle events (load via chrome://tracing or Perfetto)")
		eventsOut  = flag.String("trace-jsonl", "", "write flit lifecycle events as JSONL")
		metricsOut = flag.String("metrics-out", "", "write per-router counters, windowed time series, and global totals as JSONL")
		window     = flag.Int("window", 1000, "time-series window length in cycles (with -metrics-out or -pprof)")
		traceCap   = flag.Int("trace-cap", 0, "max retained trace events, oldest dropped first (0 = default)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof and expvar run counters on this address (e.g. localhost:6060)")

		valMetrics = flag.String("validate-metrics", "", "validate a metrics JSONL file against the export schema and exit")
		valEvents  = flag.String("validate-events", "", "validate an event JSONL file against the export schema and exit")
		valTrace   = flag.String("validate-trace", "", "validate a Chrome trace_event file and exit")

		showVersion = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Println(version.String("nocsim"))
		return
	}

	if *valMetrics != "" || *valEvents != "" || *valTrace != "" {
		validateAndExit(*valMetrics, *valEvents, *valTrace)
	}

	var exp noc.Experiment
	if *config != "" {
		data, err := os.ReadFile(*config)
		if err != nil {
			fatal("reading config: %v", err)
		}
		var spec noc.Spec
		if err := json.Unmarshal(data, &spec); err != nil {
			fatal("parsing config: %v", err)
		}
		if exp, err = spec.Experiment(); err != nil {
			fatal("%v", err)
		}
	} else {
		exp = noc.Experiment{
			Topology: parseTopo(*topoFlag),
			Scheme:   parseScheme(*scheme),
			Routing:  parseRouting(*algo),
			Policy:   parsePolicy(*policy),
			Warmup:   *warmup,
			Measure:  *measure,
			Seed:     *seed,
			UseEVC:   *useEVC,
		}
	}

	if *workers > 0 {
		exp.Workers = *workers
	}

	if *faults != "" {
		data := []byte(*faults)
		if strings.HasPrefix(*faults, "@") {
			var err error
			if data, err = os.ReadFile((*faults)[1:]); err != nil {
				fatal("reading fault schedule: %v", err)
			}
		}
		var fs noc.FaultSpec
		if err := json.Unmarshal(data, &fs); err != nil {
			fatal("parsing fault schedule: %v", err)
		}
		sched, err := fs.Schedule(exp)
		if err != nil {
			fatal("%v", err)
		}
		exp.Faults = sched
	}

	if *churn != "" {
		data := []byte(*churn)
		if strings.HasPrefix(*churn, "@") {
			var err error
			if data, err = os.ReadFile((*churn)[1:]); err != nil {
				fatal("reading churn spec: %v", err)
			}
		}
		var cs noc.ChurnSpec
		if err := json.Unmarshal(data, &cs); err != nil {
			fatal("parsing churn spec: %v", err)
		}
		c, err := cs.Churn(exp)
		if err != nil {
			fatal("%v", err)
		}
		if exp.Faults != nil {
			fatal("-faults and -churn are mutually exclusive")
		}
		exp.Churn = c
	}

	if *reliable != "" {
		var rs noc.ReliableSpec
		if *reliable != "default" {
			if err := json.Unmarshal([]byte(*reliable), &rs); err != nil {
				fatal("parsing reliable spec: %v", err)
			}
		}
		exp.Reliable = &noc.Reliability{Timeout: rs.Timeout, MaxTimeout: rs.MaxTimeout, Budget: rs.Budget}
	}

	if *metricsOut != "" || *pprofAddr != "" {
		exp.Observe.PerRouter = true
		exp.Observe.Window = *window
	}
	if *traceOut != "" || *eventsOut != "" {
		exp.Observe.Trace = true
		exp.Observe.TraceCap = *traceCap
	}

	var w noc.Workload
	if *benchmark != "" {
		var err error
		w, err = exp.CMPWorkload(*benchmark)
		if err != nil {
			fatal(err.Error())
		}
	} else {
		w = exp.SyntheticWorkload(noc.Synthetic{Pattern: parsePattern(*pattern), Rate: *rate})
	}
	n := exp.Build()

	var res noc.Result
	if *pprofAddr != "" {
		stop := serveDebug(*pprofAddr, n)
		// Chunk the run so the published expvar snapshot stays fresh; the
		// callback runs between chunks, never concurrently with Step.
		res = exp.RunOnObserved(n, w, 1000, stop.update)
		stop.update(n)
	} else {
		res = exp.RunOn(n, w)
	}

	if *metricsOut != "" {
		writeFile(*metricsOut, func(w io.Writer) error { return noc.WriteMetricsJSONL(w, n) })
	}
	if *eventsOut != "" {
		writeFile(*eventsOut, n.Tracer().WriteJSONL)
	}
	if *traceOut != "" {
		writeFile(*traceOut, n.Tracer().WriteChromeTrace)
	}

	if *jsonOut {
		out := struct {
			Spec   noc.Spec   `json:"spec"`
			Result noc.Result `json:"result"`
		}{noc.SpecOf(exp), res}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal("encoding result: %v", err)
		}
		return
	}

	fmt.Printf("topology            %s (%d nodes, avg hops %.2f)\n", exp.Topology.Name(), exp.Topology.Nodes(), res.AvgHops)
	fmt.Printf("scheme              %v  routing %v  VA %v\n", exp.Scheme, exp.Routing, exp.Policy)
	fmt.Printf("packets delivered   %d (%d flits) over %d cycles\n", res.PacketsDelivered, res.FlitsDelivered, res.Cycles)
	fmt.Printf("avg latency         %.2f cycles (network %.2f)\n", res.AvgLatency, res.AvgNetLatency)
	fmt.Printf("throughput          %.4f flits/node/cycle\n", res.Throughput)
	fmt.Printf("pc reusability      %.1f%%  (buffer bypass %.1f%%)\n", 100*res.Reusability, 100*res.BypassRate)
	xbar := "n/a" // no sample behind it: a policy router (-evc) does not report Fig. 1 crossbar locality
	if n.Stats.XbarPrev > 0 {
		xbar = fmt.Sprintf("%.1f%%", 100*res.XbarLocality)
	}
	fmt.Printf("temporal locality   e2e %.1f%%  crossbar %s\n", 100*res.E2ELocality, xbar)
	fmt.Printf("router energy       %.1f nJ (buffer %.1f%%, crossbar %.1f%%, arbiter %.1f%%)\n",
		res.EnergyPJ/1000,
		100*res.BufferPJ/res.EnergyPJ, 100*res.CrossbarPJ/res.EnergyPJ, 100*res.ArbiterPJ/res.EnergyPJ)
	if exp.Faults != nil || exp.Churn != nil {
		fmt.Printf("faults              %d events, %d packets dropped (%d flits), %d rerouted, %d circuits torn\n",
			res.FaultEvents, res.PacketsDropped, res.FlitsDropped, res.PacketsRerouted, res.PCFaultTerminated)
	}
	if exp.Reliable != nil {
		fmt.Printf("reliability         %d retransmitted, %d acks sent (%d received), %d duplicates dropped, %d failed\n",
			res.PacketsRetransmitted, res.AcksSent, res.AcksReceived, res.DuplicatesDropped, res.DeliveryFailed)
	}
	if *links > 0 {
		fmt.Printf("\nmost-loaded channels:\n")
		for i, l := range n.LinkLoads() {
			if i >= *links {
				break
			}
			kind := "link"
			if l.Ejection {
				kind = "eject"
			}
			fmt.Printf("  router %2d out %2d (%s)  %6d flits  %.3f flits/cycle\n",
				l.Router, l.Out, kind, l.Flits, l.Utilization)
		}
	}
}

func parseTopo(s string) noc.Topology {
	switch s {
	case "cmesh4x4x4":
		return noc.CMesh(4, 4, 4)
	case "mecs4x4x4":
		return noc.MECS(4, 4, 4)
	case "fbfly4x4x4":
		return noc.FBFly(4, 4, 4)
	default:
		var kx, ky int
		if n, err := fmt.Sscanf(s, "mesh%dx%d", &kx, &ky); n == 2 && err == nil {
			return noc.Mesh(kx, ky)
		}
		fatal("unknown topology %q", s)
		return nil
	}
}

func parseScheme(s string) noc.Scheme {
	switch strings.ToLower(s) {
	case "baseline":
		return noc.Baseline
	case "pseudo":
		return noc.Pseudo
	case "pseudo+s":
		return noc.PseudoS
	case "pseudo+b":
		return noc.PseudoB
	case "pseudo+s+b":
		return noc.PseudoSB
	default:
		fatal("unknown scheme %q", s)
		return noc.Baseline
	}
}

func parseRouting(s string) noc.Algorithm {
	switch strings.ToLower(s) {
	case "xy":
		return routing.XY
	case "yx":
		return routing.YX
	case "o1turn":
		return routing.O1TURN
	default:
		fatal("unknown routing algorithm %q", s)
		return routing.XY
	}
}

func parsePolicy(s string) noc.Policy {
	switch strings.ToLower(s) {
	case "static":
		return vcalloc.Static
	case "dynamic":
		return vcalloc.Dynamic
	default:
		fatal("unknown VA policy %q", s)
		return vcalloc.Dynamic
	}
}

func parsePattern(s string) noc.Pattern {
	switch strings.ToLower(s) {
	case "uniform", "ur":
		return noc.UniformRandom
	case "bitcomp", "bc":
		return noc.BitComplement
	case "transpose", "bp":
		return noc.BitPermutation
	default:
		fatal("unknown traffic pattern %q", s)
		return noc.UniformRandom
	}
}

// validateAndExit checks any of the three export formats and exits; used by
// CI to assert that emitted files match the documented schemas.
func validateAndExit(metrics, events, trace string) {
	check := func(path, kind, unit string, fn func(r io.Reader) (int, error)) {
		if path == "" {
			return
		}
		f, err := os.Open(path)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		count, err := fn(f)
		if err != nil {
			fatal("invalid %s file %s: %v", kind, path, err)
		}
		fmt.Printf("%s: valid %s (%d %s)\n", path, kind, count, unit)
	}
	check(metrics, "metrics", "lines", noc.ValidateMetricsJSONL)
	check(events, "event", "events", obs.ValidateEventsJSONL)
	check(trace, "Chrome trace", "trace events", obs.ValidateChromeTrace)
	os.Exit(0)
}

// writeFile creates path and streams one export into it.
func writeFile(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	if err := write(f); err != nil {
		f.Close()
		fatal("writing %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		fatal("writing %s: %v", path, err)
	}
}

// debugServer publishes a snapshot of the run's counters under the "nocsim"
// expvar (alongside the stock expvar/pprof handlers). The snapshot is
// refreshed between simulation chunks so HTTP reads never race the
// simulation.
type debugServer struct {
	mu   sync.Mutex
	snap map[string]any
}

func serveDebug(addr string, n *noc.Network) *debugServer {
	d := &debugServer{}
	d.update(n)
	expvar.Publish("nocsim", expvar.Func(func() any {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.snap
	}))
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "nocsim: debug server: %v\n", err)
		}
	}()
	return d
}

func (d *debugServer) update(n *noc.Network) {
	st := n.Stats
	snap := map[string]any{
		"measured_from":     int64(st.MeasuredFrom),
		"measured_to":       int64(st.MeasuredTo),
		"packets_injected":  st.PacketsInjected,
		"packets_delivered": st.PacketsDelivered,
		"flits_delivered":   st.FlitsDelivered,
		"avg_latency":       st.AvgLatency(),
		"pc_reused":         st.PCReused,
		"traversals":        st.Traversals,
		"bypassed":          st.Bypassed,
	}
	if tr := n.Tracer(); tr != nil {
		snap["trace_events"] = tr.Len()
		snap["trace_dropped"] = tr.Dropped()
	}
	d.mu.Lock()
	d.snap = snap
	d.mu.Unlock()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nocsim: "+format+"\n", args...)
	os.Exit(1)
}
