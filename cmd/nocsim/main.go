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
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"pseudocircuit/internal/obs"
	"pseudocircuit/internal/version"
	"pseudocircuit/noc"
)

func main() {
	var (
		topoFlag  = flag.String("topo", "cmesh4x4x4", "topology, any name noc.ParseTopology accepts: mesh<KX>x<KY> or {cmesh,mecs,fbfly}<KX>x<KY>x<C> (mesh8x8, cmesh4x4x4, cmesh8x8x2, ...)")
		scheme    = flag.String("scheme", "pseudo+s+b", "scheme: baseline, pseudo, pseudo+s, pseudo+b, pseudo+s+b")
		algo      = flag.String("routing", "xy", "routing algorithm: xy, yx, o1turn")
		policy    = flag.String("va", "static", "VC allocation: static, dynamic")
		benchmark = flag.String("benchmark", "", "CMP benchmark profile (closed-loop); empty selects synthetic traffic")
		pattern   = flag.String("traffic", "uniform", "synthetic pattern: uniform, bitcomp, transpose")
		rate      = flag.Float64("rate", 0.05, "synthetic injection rate (flits/node/cycle)")
		warmup    = flag.Int("warmup", 1000, "warmup cycles")
		measure   = flag.Int("measure", 10000, "measured cycles")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		useEVC    = flag.Bool("evc", false, "use the Express-Virtual-Channel comparison router (scheme must be baseline)")
		faults    = flag.String("faults", "", `fault schedule as inline JSON or @file, e.g. '{"events":[{"cycle":2000,"kind":"link-down","router":5},{"cycle":4000,"kind":"link-up","router":5}]}' (overrides the config file's schedule)`)
		churn     = flag.String("churn", "", `stochastic fault churn as inline JSON or @file, e.g. '{"seed":7,"linkFail":1e-5,"linkRepair":0.002}' (mutually exclusive with -faults)`)
		reliable  = flag.String("reliable", "", `end-to-end reliable delivery: "default", or inline JSON or @file like '{"timeout":256,"maxTimeout":2048,"budget":8}'`)
		config    = flag.String("config", "", "JSON experiment spec file (overrides the individual flags)")
		jsonOut   = flag.Bool("json", false, "emit the result as JSON")
		links     = flag.Int("links", 0, "also print the N most-loaded channels")

		traceOut   = flag.String("trace", "", "write a Chrome trace_event file of flit lifecycle events (load via chrome://tracing or Perfetto)")
		eventsOut  = flag.String("trace-jsonl", "", "write flit lifecycle events as JSONL")
		metricsOut = flag.String("metrics-out", "", "write per-router counters, windowed time series, and global totals as JSONL")
		window     = flag.Int("window", 1000, "time-series window length in cycles (with -metrics-out)")
		traceCap   = flag.Int("trace-cap", 0, "max retained trace events, oldest dropped first (0 = default)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")

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

	var spec noc.Spec
	if *config != "" {
		decodeArg("config", "@"+*config, &spec)
	} else {
		spec = noc.Spec{
			Topology: *topoFlag,
			Scheme:   *scheme,
			Routing:  *algo,
			VA:       *policy,
			Warmup:   *warmup,
			Measure:  *measure,
			Seed:     *seed,
			UseEVC:   *useEVC,
		}
	}
	if *faults != "" {
		spec.Faults = new(noc.FaultSpec)
		decodeArg("fault schedule", *faults, spec.Faults)
	}
	if *churn != "" {
		spec.Churn = new(noc.ChurnSpec)
		decodeArg("churn spec", *churn, spec.Churn)
	}
	if *reliable != "" {
		spec.Reliable = new(noc.ReliableSpec)
		if *reliable != "default" {
			decodeArg("reliable spec", *reliable, spec.Reliable)
		}
	}
	exp, err := spec.Experiment()
	if err != nil {
		fatal("%v", err)
	}

	if *metricsOut != "" {
		exp.Observe.Window = *window
	}
	if *traceOut != "" || *eventsOut != "" {
		exp.Observe.Trace = true
		exp.Observe.TraceCap = *traceCap
	}

	ws := noc.WorkloadSpec{Pattern: *pattern, Rate: *rate}
	if *benchmark != "" {
		ws = noc.WorkloadSpec{Kind: "cmp", Benchmark: *benchmark}
	}
	w, err := ws.Workload(exp)
	if err != nil {
		fatal("%v", err)
	}
	n := exp.Build()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "nocsim: pprof server: %v\n", err)
			}
		}()
	}
	res := exp.RunOn(n, w)

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
	if n.Registry().Totals().XbarPrev > 0 {
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

// decodeArg decodes a flag's JSON value, given inline or as @file, into v.
func decodeArg(what, arg string, v any) {
	data := []byte(arg)
	if strings.HasPrefix(arg, "@") {
		var err error
		if data, err = os.ReadFile(arg[1:]); err != nil {
			fatal("reading %s: %v", what, err)
		}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields() // a field nocsim does not know is refused, as nocd refuses it
	if err := dec.Decode(v); err != nil {
		fatal("parsing %s: %v", what, err)
	}
	if dec.More() {
		fatal("parsing %s: trailing data after the JSON value", what)
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

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nocsim: "+format+"\n", args...)
	os.Exit(1)
}
