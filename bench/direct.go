package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pseudocircuit/noc"
)

const (
	// fixedJobs is the part of the untraced job loop that never varies: every
	// run does at least this many jobs whatever --seconds says, and peak RSS
	// is read after exactly this many, so neither the memory figure nor the
	// number of samples behind a percentile depends on how fast the code under
	// test or the host happens to be. 120 jobs put 12 samples beyond the p90.
	// The loop then goes on until --seconds are up: more samples for the
	// timings, and a run that ends on time on a slow host.
	fixedJobs = 120
	// digestJobs is how many leading jobs feed result_digest and model.*: a
	// prefix short enough that the traced run, which does every job twice,
	// always covers it too.
	digestJobs = 8
)

// directWorkload is a stream of experiment points run in this process: job j
// builds the network, warms up, measures and collects, with seed base+1+j
// (seed 0 means "default" to the API, so seeds start at 1).
type directWorkload struct {
	name, why string
	exp       noc.Experiment
	syn       noc.Synthetic
}

var directWorkloads = []directWorkload{
	{
		name: "mesh8-ur-psb",
		why:  "internal/router and internal/core do ~80% of a cycle: pseudo-circuit and router fast-path work must show here",
		exp: noc.Experiment{Topology: noc.Mesh(8, 8), Scheme: noc.PseudoSB, Routing: noc.XY,
			Policy: noc.StaticVA, Warmup: 1000, Measure: 10000},
		syn: noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.10},
	},
	{
		name: "mesh8-bc-evc",
		why:  "internal/evc does all router work and internal/router none: a router-only change predicts no change",
		exp: noc.Experiment{Topology: noc.Mesh(8, 8), Scheme: noc.Baseline, Routing: noc.XY,
			Policy: noc.DynamicVA, UseEVC: true, Warmup: 1000, Measure: 6000},
		syn: noc.Synthetic{Pattern: noc.BitComplement, Rate: 0.10},
	},
	{
		name: "mesh24-ur-sparse",
		why:  "~8% of 576 routers tick per cycle and building the network is half of a job: network.Step, traffic and set-up cost show here, on the largest state",
		exp: noc.Experiment{Topology: noc.Mesh(24, 24), Scheme: noc.Baseline, Routing: noc.XY,
			Policy: noc.StaticVA, Warmup: 500, Measure: 4500},
		syn: noc.Synthetic{Pattern: noc.UniformRandom, Rate: 0.002},
	},
}

func (w directWorkload) experiment(seed uint64) noc.Experiment {
	e := w.exp
	e.Seed = seed
	return e
}

func (w directWorkload) traffic(e noc.Experiment) noc.Workload { return e.SyntheticWorkload(w.syn) }

// runSplit is one job, with a clock read where set-up ends: it returns the
// wall seconds of the set-up — everything before the first cycle — and of
// the whole job.
func (w directWorkload) runSplit(e noc.Experiment) (r noc.Result, setup, total float64) {
	start := time.Now()
	n, t := e.Build(), w.traffic(e)
	setup = time.Since(start).Seconds()
	r = e.RunOn(n, t)
	return r, setup, time.Since(start).Seconds()
}

func (w directWorkload) run(e noc.Experiment) noc.Result {
	r, _, _ := w.runSplit(e)
	return r
}

// collect runs the garbage collector, untimed, before a job: every job then
// starts from a collected heap, as it does in a process of its own (cmd/nocsim
// runs one experiment per process). Without it peak memory says how far the
// concurrent collector fell behind, which is up to the host: mesh24-ur-sparse
// read 16 or 20 MiB (spread 26 % over ten runs) where it reads 12.7 MiB
// within 2 % with it, and job times the same either way.
func collect() { runtime.GC() }

// jobSeed is the seed of job j of a run.
func jobSeed(o options, j int) uint64 { return o.seed + 1 + uint64(j) }

// checkResult is the per-job check that decides ops_failed.
func checkResult(r noc.Result, measure int) bool {
	return r.Cycles == measure && r.PacketsDelivered > 0
}

// checkJob applies checkResult to job j and records a failure.
func checkJob(out *outcome, j int, r noc.Result, measure int) bool {
	if checkResult(r, measure) {
		return true
	}
	out.failf("job %d: cycles %d (want %d), packets %d", j, r.Cycles, measure, r.PacketsDelivered)
	return false
}

// digestOf hashes the results that must repeat exactly for a seed: the
// caller passes the fixed leading part of a run.
func digestOf(results []noc.Result) string {
	enc, _ := json.Marshal(results) // plain numeric structs: cannot fail
	h := sha256.Sum256(enc)
	return hex.EncodeToString(h[:])
}

// endToEndMetrics turns a job series into the latency and throughput
// metrics. ok[j] false drops job j from the latency figures: a failed job
// misses them all.
func endToEndMetrics(o *outcome, jobs series, ok []bool, cycles float64) {
	var good []float64
	for j, c := range jobs.calibrated() {
		if ok[j] {
			good = append(good, c*1e3)
		} else {
			o.failed++
		}
	}
	o.attempted = len(jobs.ops)
	if b := beyond(len(good), 90); b < 10 {
		o.failf("%d good jobs leave %d samples beyond the p90, need 10", len(good), b)
	}
	o.metrics["sim_cycles_per_s"] = cycles / jobs.calibratedTotal()
	o.metrics["job_ms_p50"] = percentile(good, 50)
	o.metrics["job_ms_p25"] = percentile(good, 25)
	wall := sum(jobs.ops)
	o.ungated = map[string]float64{
		"job_ms_p90":                 percentile(good, 90),
		"host.wall_s":                wall,
		"host.refops_per_s":          jobs.runRate(),
		"host.raw_cycles_per_wall_s": cycles / wall,
		"host.raw_job_ms_p50":        median(jobs.ops) * 1e3,
		"host.raw_job_ms_p90":        percentile(jobs.ops, 90) * 1e3,
	}
}

func (w directWorkload) untraced(o options) outcome {
	out := outcome{metrics: map[string]float64{}}
	_, measure := w.exp.Protocol()

	// Set-up is timed inside every job, so its samples are spread over the
	// whole run like the jobs' own and share their laps.
	var results []noc.Result
	var setups []float64
	start := time.Now()
	jobs := timeOps(func(j int) (float64, bool) {
		collect()
		r, setup, d := w.runSplit(w.experiment(jobSeed(o, j)))
		results = append(results, r)
		setups = append(setups, setup)
		if j+1 == fixedJobs {
			out.metrics["peak_rss_mib"] = peakRSSMiB(os.Getpid())
		}
		return d, j+1 < fixedJobs || time.Since(start).Seconds() < o.seconds
	})

	// Checks, untimed.
	ok := make([]bool, len(results))
	cycles := 0.0
	for j, r := range results {
		ok[j] = checkJob(&out, j, r, measure)
		cycles += float64(r.Cycles)
	}
	ref := w.experiment(jobSeed(o, 0))
	ref.NaiveKernel = true
	if w.run(ref) != results[0] {
		ok[0] = false
		out.failf("job 0 differs from the NaiveKernel reference")
	}
	endToEndMetrics(&out, jobs, ok, cycles)
	out.metrics["setup_s"] = median(series{jobs.laps, setups}.calibrated())
	out.digest = digestOf(results[:digestJobs])
	return out
}

// traced runs every job twice, untraced then traced, so the two can be
// compared bit for bit and the tracing overhead is the ratio of their times.
func (w directWorkload) traced(o options) (outcome, error) {
	out := outcome{metrics: map[string]float64{}}
	m := out.metrics
	_, measure := w.exp.Protocol()
	cost := measureTimerCost()

	var (
		results []noc.Result
		ledger  []tracedJob
		mem     memDelta
		rec     recorder
	)
	start := time.Now()
	ops := timeOps(func(i int) (float64, bool) {
		j := i / 2
		e := w.experiment(jobSeed(o, j))
		if i%2 == 0 {
			collect()
			var r noc.Result
			d := mem.around(func() { r = w.run(e) })
			results = append(results, r)
			return d, true
		}
		t := runTraced(e, w.traffic)
		ledger = append(ledger, t)
		rec.addJob(j, t, "traffic")
		return float64(t.total) / 1e9, j+1 < digestJobs || time.Since(start).Seconds() < o.seconds
	})

	var plain, traced float64
	for j, r := range results {
		plain += ops.ops[2*j]
		traced += ops.ops[2*j+1]
		good := checkJob(&out, j, r, measure)
		if ledger[j].result != r {
			good = false
			out.failf("job %d: traced result differs from untraced", j)
		}
		if !good {
			out.failed++
		}
	}
	out.attempted = len(results)
	out.digest = digestOf(results[:digestJobs])

	corrected := ledgerMetrics(m, ledger, cost, ops.runRate()/refOpsPerSec, "traffic")
	m["job_ms_p90"] = 1e3 * percentile(everyOther(ops.calibrated(), 0), 90)

	mem.report(m, float64(len(results)))
	modelMetrics(m, results[:digestJobs])
	m["model.result_digest"] = digest48(out.digest)

	m["host.refops_per_s"] = ops.runRate()
	m["host.wall_s"] = plain
	m["host.raw_cycles_per_wall_s"] = float64(len(results)*measure) / plain
	m["trace.timer_pair_ns"] = cost.pair
	m["trace.overhead_ratio"] = traced / plain
	// The ledger closes when the traced jobs, less the timer's cost, take
	// what the untraced jobs took: the layer times then add up to the real
	// job time and not only to the traced one.
	m["trace.ledger_ratio"] = corrected / (plain * 1e9)

	_, err := rec.write(o.outDir, w.name)
	return out, err
}

// memDelta accumulates allocation counts over the calls it wraps.
type memDelta struct {
	mallocs, bytes uint64
	gcs            uint32
}

// around runs f between two memory snapshots and returns f's wall seconds;
// the snapshots stay outside the timed part.
func (d *memDelta) around(f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	s := timed(f)
	runtime.ReadMemStats(&b)
	d.mallocs += b.Mallocs - a.Mallocs
	d.bytes += b.TotalAlloc - a.TotalAlloc
	d.gcs += b.NumGC - a.NumGC
	return s
}

func (d *memDelta) report(m map[string]float64, jobs float64) {
	m["runtime.allocs_per_job"] = float64(d.mallocs) / jobs
	m["runtime.alloc_kib_per_job"] = float64(d.bytes) / 1024 / jobs
	m["runtime.gc_cycles"] = float64(d.gcs) / jobs
}

// modelMetrics reports the simulated statistics of the results the digest
// covers. They depend on the seed alone: a change that only makes the
// simulator faster must leave every one of them identical.
func modelMetrics(m map[string]float64, results []noc.Result) {
	n := float64(len(results))
	var energy, flits float64
	for _, r := range results {
		m["model.avg_latency_cycles"] += r.AvgLatency / n
		m["model.avg_hops"] += r.AvgHops / n
		m["model.reusability"] += r.Reusability / n
		m["model.bypass_rate"] += r.BypassRate / n
		m["model.throughput"] += r.Throughput / n
		m["model.packets_delivered"] += float64(r.PacketsDelivered)
		energy += r.EnergyPJ
		flits += float64(r.FlitsDelivered)
	}
	m["model.energy_pj_per_flit"] = energy / flits
}

// digest48 is the leading 48 bits of a hex digest as a number a float64
// holds exactly, for the metrics object, which carries numbers only.
func digest48(hexDigest string) float64 {
	v, _ := strconv.ParseUint(hexDigest[:12], 16, 64)
	return float64(v)
}

// peakRSSMiB reads a process's peak resident set (VmHWM) from /proc.
func peakRSSMiB(pid int) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
