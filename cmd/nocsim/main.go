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
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"pseudocircuit/internal/obs"
	"pseudocircuit/noc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the exit
// status. Input that cannot run is one "nocsim: " line on stderr and status 1.
func run(args []string, stdout, stderr io.Writer) int {
	if err := simulate(args, stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "nocsim: %v\n", err)
		return 1
	}
	return 0
}

// simulate parses args, runs the one simulation they describe and prints it.
func simulate(args []string, stdout, stderr io.Writer) error {
	// Named after the binary and exiting on a bad flag, as flag.CommandLine
	// is: -h reads "Usage of <path>:", and a flag error is status 2.
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		topoFlag  = fs.String("topo", "cmesh4x4x4", "topology, any name noc.ParseTopology accepts: mesh<KX>x<KY> or {cmesh,mecs,fbfly}<KX>x<KY>x<C> (mesh8x8, cmesh4x4x4, cmesh8x8x2, ...)")
		scheme    = fs.String("scheme", "pseudo+s+b", "scheme: baseline, pseudo, pseudo+s, pseudo+b, pseudo+s+b")
		algo      = fs.String("routing", "xy", "routing algorithm: xy, yx, o1turn")
		policy    = fs.String("va", "static", "VC allocation: static, dynamic")
		benchmark = fs.String("benchmark", "", "CMP benchmark profile (closed-loop); empty selects synthetic traffic")
		pattern   = fs.String("traffic", "uniform", "synthetic pattern: uniform, bitcomp, transpose")
		rate      = fs.Float64("rate", 0.05, "synthetic injection rate (flits/node/cycle)")
		warmup    = fs.Int("warmup", 1000, "warmup cycles")
		measure   = fs.Int("measure", 10000, "measured cycles")
		seed      = fs.Uint64("seed", 1, "simulation seed")
		useEVC    = fs.Bool("evc", false, "use the Express-Virtual-Channel comparison router (scheme must be baseline)")
		faults    = fs.String("faults", "", `fault schedule as inline JSON or @file, e.g. '{"events":[{"cycle":2000,"kind":"link-down","router":5},{"cycle":4000,"kind":"link-up","router":5}]}' (overrides the config file's schedule)`)
		churn     = fs.String("churn", "", `stochastic fault churn as inline JSON or @file, e.g. '{"seed":7,"linkFail":1e-5,"linkRepair":0.002}' (mutually exclusive with -faults)`)
		reliable  = fs.String("reliable", "", `end-to-end reliable delivery: "default", or inline JSON or @file like '{"timeout":256,"maxTimeout":2048,"budget":8}'`)
		config    = fs.String("config", "", "JSON experiment spec file (overrides the individual flags)")
		jsonOut   = fs.Bool("json", false, "emit the result as JSON")
		links     = fs.Int("links", 0, "also print the N most-loaded channels")

		traceOut   = fs.String("trace", "", "write a Chrome trace_event file of flit lifecycle events (load via chrome://tracing or Perfetto)")
		eventsOut  = fs.String("trace-jsonl", "", "write flit lifecycle events as JSONL")
		metricsOut = fs.String("metrics-out", "", "write per-router counters, windowed time series, and global totals as JSONL")
		window     = fs.Int("window", 1000, "time-series window length in cycles (with -metrics-out)")
		traceCap   = fs.Int("trace-cap", 0, "max retained trace events, oldest dropped first (0 = default)")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")

		valMetrics = fs.String("validate-metrics", "", "validate a metrics JSONL file against the export schema and exit")
		valEvents  = fs.String("validate-events", "", "validate an event JSONL file against the export schema and exit")
		valTrace   = fs.String("validate-trace", "", "validate a Chrome trace_event file and exit")
	)
	fs.Parse(args)

	if *valMetrics != "" || *valEvents != "" || *valTrace != "" {
		return validate(stdout, *valMetrics, *valEvents, *valTrace)
	}

	var spec noc.Spec
	if *config != "" {
		if err := decodeArg("config", "@"+*config, &spec); err != nil {
			return err
		}
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
		if err := decodeArg("fault schedule", *faults, spec.Faults); err != nil {
			return err
		}
	}
	if *churn != "" {
		spec.Churn = new(noc.ChurnSpec)
		if err := decodeArg("churn spec", *churn, spec.Churn); err != nil {
			return err
		}
	}
	if *reliable != "" {
		spec.Reliable = new(noc.ReliableSpec)
		if *reliable != "default" {
			if err := decodeArg("reliable spec", *reliable, spec.Reliable); err != nil {
				return err
			}
		}
	}
	exp, err := spec.Experiment()
	if err != nil {
		return err
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
		return err
	}
	n := exp.Build()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(stderr, "nocsim: pprof server: %v\n", err)
			}
		}()
	}
	res := exp.RunOn(n, w)

	for _, out := range []struct {
		path  string
		write func(w io.Writer) error
	}{
		{*metricsOut, func(w io.Writer) error { return noc.WriteMetricsJSONL(w, n) }},
		{*eventsOut, n.Tracer().WriteJSONL},
		{*traceOut, n.Tracer().WriteChromeTrace},
	} {
		if out.path == "" {
			continue
		}
		if err := writeFile(out.path, out.write); err != nil {
			return err
		}
	}
	// A ring that evicted says so: its export is the newest part of the run.
	if tr := n.Tracer(); tr.Dropped() > 0 {
		fmt.Fprintf(stderr, "nocsim: trace kept the newest %d events and dropped %d; raise -trace-cap to keep more\n", tr.Len(), tr.Dropped())
	}
	if s := n.Series(); s != nil && s.Dropped() > 0 {
		fmt.Fprintf(stderr, "nocsim: time series kept the newest %d windows (a fixed cap) and dropped %d; a longer -window covers more of the run\n", s.Len(), s.Dropped())
	}

	if *jsonOut {
		out := struct {
			Spec   noc.Spec   `json:"spec"`
			Result noc.Result `json:"result"`
		}{noc.SpecOf(exp), res}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return fmt.Errorf("encoding result: %w", err)
		}
		return nil
	}

	fmt.Fprintf(stdout, "topology            %s (%d nodes, avg hops %.2f)\n", exp.Topology.Name(), exp.Topology.Nodes(), res.AvgHops)
	fmt.Fprintf(stdout, "scheme              %v  routing %v  VA %v\n", exp.Scheme, exp.Routing, exp.Policy)
	fmt.Fprintf(stdout, "packets delivered   %d (%d flits) over %d cycles\n", res.PacketsDelivered, res.FlitsDelivered, res.Cycles)
	fmt.Fprintf(stdout, "avg latency         %.2f cycles (network %.2f)\n", res.AvgLatency, res.AvgNetLatency)
	fmt.Fprintf(stdout, "throughput          %.4f flits/node/cycle\n", res.Throughput)
	fmt.Fprintf(stdout, "pc reusability      %.1f%%  (buffer bypass %.1f%%)\n", 100*res.Reusability, 100*res.BypassRate)
	xbar := "n/a" // no sample behind it: a policy router (-evc) does not report Fig. 1 crossbar locality
	if n.Registry().Totals().XbarPrev > 0 {
		xbar = fmt.Sprintf("%.1f%%", 100*res.XbarLocality)
	}
	fmt.Fprintf(stdout, "temporal locality   e2e %.1f%%  crossbar %s\n", 100*res.E2ELocality, xbar)
	fmt.Fprintf(stdout, "router energy       %.1f nJ (buffer %.1f%%, crossbar %.1f%%, arbiter %.1f%%)\n",
		res.EnergyPJ/1000,
		100*res.BufferPJ/res.EnergyPJ, 100*res.CrossbarPJ/res.EnergyPJ, 100*res.ArbiterPJ/res.EnergyPJ)
	if exp.Faults != nil || exp.Churn != nil {
		fmt.Fprintf(stdout, "faults              %d events, %d packets dropped (%d flits), %d rerouted, %d circuits torn\n",
			res.FaultEvents, res.PacketsDropped, res.FlitsDropped, res.PacketsRerouted, res.PCFaultTerminated)
	}
	if exp.Reliable != nil {
		fmt.Fprintf(stdout, "reliability         %d retransmitted, %d acks sent (%d received), %d duplicates dropped, %d failed\n",
			res.PacketsRetransmitted, res.AcksSent, res.AcksReceived, res.DuplicatesDropped, res.DeliveryFailed)
	}
	if *links > 0 {
		fmt.Fprintf(stdout, "\nmost-loaded channels:\n")
		for i, l := range n.LinkLoads() {
			if i >= *links {
				break
			}
			kind := "link"
			if l.Ejection {
				kind = "eject"
			}
			fmt.Fprintf(stdout, "  router %2d out %2d (%s)  %6d flits  %.3f flits/cycle\n",
				l.Router, l.Out, kind, l.Flits, l.Utilization)
		}
	}
	return nil
}

// decodeArg decodes a flag's JSON value, given inline or as @file, into v.
func decodeArg(what, arg string, v any) error {
	data := []byte(arg)
	if strings.HasPrefix(arg, "@") {
		var err error
		if data, err = os.ReadFile(arg[1:]); err != nil {
			return fmt.Errorf("reading %s: %w", what, err)
		}
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields() // a field nocsim does not know is refused, as nocd refuses it
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("parsing %s: %w", what, err)
	}
	if dec.More() {
		return fmt.Errorf("parsing %s: trailing data after the JSON value", what)
	}
	return nil
}

// validate checks any of the three export formats, reporting each valid file
// on stdout; TestTraceExports holds emitted files to the documented schemas
// with it.
func validate(stdout io.Writer, metrics, events, trace string) error {
	for _, c := range []struct {
		path, kind, unit string
		fn               func(r io.Reader) (int, error)
	}{
		{metrics, "metrics", "lines", noc.ValidateMetricsJSONL},
		{events, "event", "events", obs.ValidateEventsJSONL},
		{trace, "Chrome trace", "trace events", obs.ValidateChromeTrace},
	} {
		if c.path == "" {
			continue
		}
		f, err := os.Open(c.path)
		if err != nil {
			return err
		}
		count, err := c.fn(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("invalid %s file %s: %w", c.kind, c.path, err)
		}
		fmt.Fprintf(stdout, "%s: valid %s (%d %s)\n", c.path, c.kind, count, c.unit)
	}
	return nil
}

// writeFile creates path and streams one export into it.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if err := cmp.Or(err, f.Close()); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
