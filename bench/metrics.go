package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: worsening that is a regression
}

// endToEnd are the metrics a user sees, reported for every workload by the
// untraced run. Times are calibrated (see hostcal.go). AA.md has the spreads
// the bounds are set from.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sim_cycles_per_s", "1/s", "higher", 0.25},
	{"job_ms_p50", "ms", "lower", 0.25},
	// The host only ever adds time to a job, so the fast quarter of a run's
	// jobs is the part it disturbed least: half the spread of the median
	// between identical runs, and the timing to read first.
	{"job_ms_p25", "ms", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.10},
}

// perLayer are the traced run's metrics. A layer a workload does not use
// reports 0. Times are calibrated except under host.* and trace.timer_*.
var perLayer = []metricDef{
	// The tail of job time spreads 14-16 % between identical runs in a noisy
	// hour, more than any bound could gate, so it is reported and not gated.
	{name: "job_ms_p90", unit: "ms", better: "lower"},
	{name: "network.build_ms", unit: "ms", better: "lower"},
	{name: "network.step_self_ns_per_cycle", unit: "ns/cycle", better: "lower"},
	{name: "router.tick_ns_per_cycle", unit: "ns/cycle", better: "lower"},
	{name: "router.ticks_per_cycle", unit: "count", better: "lower"},
	{name: "router.ns_per_tick", unit: "ns", better: "lower"},
	{name: "evc.tick_ns_per_cycle", unit: "ns/cycle", better: "lower"},
	{name: "evc.ticks_per_cycle", unit: "count", better: "lower"},
	{name: "evc.ns_per_tick", unit: "ns", better: "lower"},
	{name: "traffic.tick_ns_per_cycle", unit: "ns/cycle", better: "lower"},
	{name: "cmp.tick_ns_per_cycle", unit: "ns/cycle", better: "lower"},
	{name: "cmp.deliver_ns_per_cycle", unit: "ns/cycle", better: "lower"},
	{name: "noc.warmup_ms", unit: "ms", better: "lower"},
	{name: "noc.measure_ms", unit: "ms", better: "lower"},
	{name: "noc.collect_us", unit: "us", better: "lower"},

	{name: "sweepapi.parse_us", unit: "us", better: "lower"},
	{name: "service.decode_us", unit: "us", better: "lower"},
	{name: "service.canonicalize_us", unit: "us", better: "lower"},
	{name: "service.cold_point_ms", unit: "ms", better: "lower"},
	{name: "service.mem_hit_us", unit: "us", better: "lower"},
	{name: "service.store_hit_us", unit: "us", better: "lower"},
	{name: "service.tax_ratio", unit: "ratio", better: "lower"},
	{name: "store.put_us", unit: "us", better: "lower"},
	{name: "store.get_us", unit: "us", better: "lower"},
	{name: "store.bytes_per_entry", unit: "B", better: "lower"},
	{name: "nocd.http_overhead_ms", unit: "ms", better: "lower"},
	{name: "nocdclient.submit_sweep_ms", unit: "ms", better: "lower"},

	{name: "service.cold_runs", unit: "count", better: "lower"},
	{name: "service.mem_hits", unit: "count", better: "higher"},
	{name: "service.store_hits", unit: "count", better: "higher"},
	{name: "store.evictions", unit: "count", better: "lower"},
	{name: "runtime.allocs_per_job", unit: "count", better: "lower"},
	{name: "runtime.alloc_kib_per_job", unit: "KiB", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower"},

	{name: "model.avg_latency_cycles", unit: "cycles", better: "lower"},
	{name: "model.avg_hops", unit: "count", better: "lower"},
	{name: "model.reusability", unit: "ratio", better: "higher"},
	{name: "model.bypass_rate", unit: "ratio", better: "higher"},
	{name: "model.throughput", unit: "flits/node/cycle", better: "higher"},
	{name: "model.energy_pj_per_flit", unit: "pJ/flit", better: "lower"},
	{name: "model.packets_delivered", unit: "count", better: "higher"},
	{name: "model.result_digest", unit: "hash48", better: "higher"},

	{name: "host.refops_per_s", unit: "1/s", better: "higher"},
	{name: "host.wall_s", unit: "s", better: "lower"},
	{name: "host.raw_cycles_per_wall_s", unit: "1/s", better: "higher"},
	{name: "trace.timer_pair_ns", unit: "ns", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "trace.ledger_ratio", unit: "ratio", better: "lower"},
}

// outcome is what one run of one workload produced.
type outcome struct {
	attempted, failed int
	// problems lists every failed check; the run is correct when it is empty.
	problems []string
	metrics  map[string]float64
	// digest is the hash of the first digestJobs results. It depends on the
	// seed alone, so it is equal in traced and untraced runs of one seed.
	digest string
	// ungated holds what the untraced run reports beside the contract's
	// metrics: job_ms_p90 and, under host.*, raw wall-clock figures for the
	// A/A report's raw-versus-calibrated comparison.
	ungated map[string]float64
}

func (o *outcome) failf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// info is the line before the result: what tools such as -aa need beyond
// the contract's keys.
type info struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Digest   string             `json:"digest"`
	Ungated  map[string]float64 `json:"ungated,omitempty"`
	Problems []string           `json:"problems,omitempty"`
}

// emit writes the info line and the result line. defs selects which metrics
// the contract wants from this run; one the run did not set reports 0.
func emit(w io.Writer, workload string, seed uint64, o outcome, defs []metricDef) error {
	res := result{
		Correct:   len(o.problems) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{o.metrics[d.name], d.unit}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(info{workload, seed, o.digest, o.ungated, o.problems}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// report prints every metric of an outcome by name, with unit and bound.
func report(w io.Writer, title string, o outcome, defs []metricDef) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range defs {
		bound := ""
		if d.bound > 0 {
			bound = fmt.Sprintf("  (%s is better, bound %.2f)", d.better, d.bound)
		}
		fmt.Fprintf(w, "  %-34s %16.6g %-17s%s\n", d.name, o.metrics[d.name], d.unit, bound)
	}
	keys := make([]string, 0, len(o.ungated))
	for k := range o.ungated {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-34s %16.6g (ungated)\n", k, o.ungated[k])
	}
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d  result_digest %s\n", o.attempted, o.failed, o.digest)
	for _, p := range o.problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
}
