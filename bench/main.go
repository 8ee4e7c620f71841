// Command bench is this repository's benchmark: four long workloads, five
// end-to-end metrics in host-calibrated time, and a traced run that times
// each layer from outside. README.md defines every metric and workload;
// BENCHMARK.json is the contract the numbers are judged by.
//
//	bash bench/run.sh --workload mesh8-ur-psb --seed 1 --seconds 28 --trace 0
//	bash bench/run.sh -all          # every metric of every workload, traces in bench/out/
//	bash bench/run.sh -aa 5         # A/A check: two interleaved sets of 5 runs
package main

import (
	"flag"
	"fmt"
	"os"
)

// options are the contract's arguments plus where files go.
type options struct {
	seed    uint64
	seconds float64
	outDir  string // trace files and temporary directories
	nocd    string // path of the built nocd binary (svc-cmp-sweep only)
}

// workloadWhy lists the workloads in report order with their one-line why.
func workloadWhy() [][2]string {
	var out [][2]string
	for _, w := range directWorkloads {
		out = append(out, [2]string{w.name, w.why})
	}
	return append(out, [2]string{svcName, svcWhy})
}

// runWorkload runs one workload once, untraced or traced.
func runWorkload(name string, trace bool, o options) (outcome, []metricDef, error) {
	if name == svcName {
		if trace {
			out, err := svcTraced(o)
			return out, perLayer, err
		}
		out, err := svcUntraced(o)
		return out, endToEnd, err
	}
	for _, w := range directWorkloads {
		if w.name != name {
			continue
		}
		if trace {
			out, err := w.traced(o)
			return out, perLayer, err
		}
		return w.untraced(o), endToEnd, nil
	}
	return outcome{}, nil, fmt.Errorf("unknown workload %q", name)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (see README.md)")
		seed     = flag.Uint64("seed", 1, "base seed: job j runs with seed+1+j")
		seconds  = flag.Float64("seconds", 28, "wall seconds of the measured job loop, which never stops before its 120th job")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		outDir   = flag.String("out", "bench/out", "directory for trace files and temporary state")
		nocd     = flag.String("nocd", "", "path of the nocd binary (run.sh builds and passes it)")
		all      = flag.Bool("all", false, "run every workload untraced and traced and print every metric")
		aa       = flag.Int("aa", 0, "A/A check: run every workload in two interleaved sets of this many runs")
	)
	flag.Parse()
	o := options{seed: *seed, seconds: *seconds, outDir: *outDir, nocd: *nocd}

	var err error
	switch {
	case *aa > 0:
		err = runAA(*aa, o)
	case *all:
		err = runAll(o)
	default:
		var out outcome
		var defs []metricDef
		if out, defs, err = runWorkload(*workload, *trace != 0, o); err == nil {
			report(os.Stderr, fmt.Sprintf("%s seed %d trace %d", *workload, *seed, *trace), out, defs)
			err = emit(os.Stdout, *workload, *seed, out, defs)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
