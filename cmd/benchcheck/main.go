// Command benchcheck measures the cycle kernel's ns/cycle under its
// sequential (one shard) and parallel (one shard per CPU) schedules at the
// Fig. 12 operating point (8×8 mesh, Pseudo+S+B, uniform-random traffic at
// 0.18) and on a 32×32 mesh at 0.10 (a size where sharding pays, which 8×8 is
// not), plus the sweep pipeline's ns/point on a fully warm cache (pure
// batch-API overhead: expansion, canonicalization, scheduling — zero
// simulation) and the ns one Experiment.Build() of a 24×24 mesh takes
// (job/build: the set-up every job pays before its first cycle), and gates
// performance regressions against a checked-in snapshot:
//
//	benchcheck -write BENCH_7.json               # refresh the snapshot
//	benchcheck -against BENCH_7.json             # fail on >15% regression
//	benchcheck -against latest                   # newest BENCH_<n>.json in cwd
//	benchcheck -against latest -require-all      # missing series is an error
//	benchcheck -against latest -tolerances 'fig12/*=0.35'
//
// -against latest resolves the highest-numbered BENCH_<n>.json in the working
// directory, so the CI gate follows snapshot refreshes without a workflow
// edit; it fails loudly when no snapshot exists at all. -require-all turns
// "no baseline; skipped" into a failure — the gate can only weaken silently
// when a series may vanish from the snapshot unnoticed. -tolerances applies
// per-series overrides (glob=fraction, comma-separated) on top of -tolerance,
// so the simulator kernel series can be gated tightly while noisier
// service-level series keep a loose bound.
//
// Each configuration is measured several times and the minimum is compared —
// the minimum is the least noisy estimator of the true cost on a shared
// machine (everything above it is scheduling interference). Speedups are
// never an error; the snapshot should then be refreshed with -write so the
// gate tightens.
//
// On a single-CPU host (GOMAXPROCS == 1) the */parallel series are skipped:
// the sharded schedule degenerates to one worker and the measurement would
// gate sharding overhead, not parallel speed. The snapshot records the
// effective worker count in parallelWorkers so a reader can tell which case
// produced the numbers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"pseudocircuit/internal/service"
	"pseudocircuit/internal/sweepapi"
	"pseudocircuit/noc"
)

// Snapshot is the checked-in benchmark baseline. Host metadata records where
// the numbers came from: comparisons across different hardware measure the
// hardware, not the code. ParallelWorkers is the worker count the */parallel
// series ran with — 0 means they were skipped (single-CPU host).
type Snapshot struct {
	GOOS            string             `json:"goos"`
	GOARCH          string             `json:"goarch"`
	NumCPU          int                `json:"numCPU"`
	ParallelWorkers int                `json:"parallelWorkers,omitempty"`
	NsPerCycle      map[string]float64 `json:"nsPerCycle"`
}

const repeats = 3

func main() {
	var (
		write      = flag.String("write", "", "measure and write the snapshot to this path")
		against    = flag.String("against", "", "measure and compare to the snapshot at this path; 'latest' resolves the newest BENCH_<n>.json in the working directory")
		tolerance  = flag.Float64("tolerance", 0.15, "allowed fractional slowdown before failing")
		tolerances = flag.String("tolerances", "", "per-series tolerance overrides, comma-separated glob=fraction pairs (e.g. 'fig12/*=0.35')")
		requireAll = flag.Bool("require-all", false, "fail when a measured series has no baseline in the snapshot instead of skipping it")
	)
	flag.Parse()
	if (*write == "") == (*against == "") {
		fmt.Fprintln(os.Stderr, "benchcheck: exactly one of -write or -against is required")
		os.Exit(2)
	}
	overrides, err := parseTolerances(*tolerances)
	if err != nil {
		fatal("%v", err)
	}

	workers := runtime.GOMAXPROCS(0)
	cur := Snapshot{
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
		NsPerCycle: map[string]float64{
			"fig12/sequential":  measure(8, 0.18, 0),
			"mesh32/sequential": measure(32, 0.10, 0),
			"job/build":         measureBuild(),
			"sweep/warm-point":  measureSweep(),
		},
	}
	if workers > 1 {
		cur.ParallelWorkers = workers
		cur.NsPerCycle["fig12/parallel"] = measure(8, 0.18, workers)
		cur.NsPerCycle["mesh32/parallel"] = measure(32, 0.10, workers)
	} else {
		fmt.Println("*/parallel         skipped: GOMAXPROCS=1, the sharded kernel would measure sharding overhead, not parallelism")
	}
	for _, k := range seriesOrder(cur.NsPerCycle) {
		fmt.Printf("%-18s %10.1f ns/op\n", k, cur.NsPerCycle[k])
	}

	if *write != "" {
		data, err := json.MarshalIndent(cur, "", "  ")
		if err != nil {
			fatal("encoding snapshot: %v", err)
		}
		if err := os.WriteFile(*write, append(data, '\n'), 0o644); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("wrote %s\n", *write)
		return
	}

	target := *against
	if target == "latest" {
		target, err = latestSnapshot(".")
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("resolved -against latest to %s\n", target)
	}
	data, err := os.ReadFile(target)
	if err != nil {
		fatal("%v", err)
	}
	var base Snapshot
	if err := json.Unmarshal(data, &base); err != nil {
		fatal("parsing %s: %v", target, err)
	}
	if base.GOOS != cur.GOOS || base.GOARCH != cur.GOARCH || base.NumCPU != cur.NumCPU {
		fmt.Printf("note: snapshot host %s/%s %d-cpu differs from this host %s/%s %d-cpu; the comparison partly measures hardware\n",
			base.GOOS, base.GOARCH, base.NumCPU, cur.GOOS, cur.GOARCH, cur.NumCPU)
	}
	failed := false
	for _, k := range seriesOrder(cur.NsPerCycle) {
		want, ok := base.NsPerCycle[k]
		if !ok || want <= 0 {
			if strings.HasSuffix(k, "/parallel") && base.ParallelWorkers == 0 {
				// The snapshot host skipped the parallel series (single CPU,
				// recorded as parallelWorkers 0): there is no baseline to
				// require, so the skip stands even under -require-all.
				fmt.Printf("%-18s baseline host skipped this series (single-CPU snapshot); skipped\n", k)
				continue
			}
			if *requireAll {
				fmt.Printf("%-18s MISSING BASELINE — refresh the snapshot with -write to cover it\n", k)
				failed = true
				continue
			}
			fmt.Printf("%-18s no baseline; skipped\n", k)
			continue
		}
		tol := toleranceFor(k, *tolerance, overrides)
		ratio := cur.NsPerCycle[k] / want
		verdict := "ok"
		if ratio > 1+tol {
			verdict = "REGRESSION"
			failed = true
		}
		fmt.Printf("%-18s baseline %10.1f  now %10.1f  ratio %.2f (tol %.2f)  %s\n",
			k, want, cur.NsPerCycle[k], ratio, tol, verdict)
	}
	for k := range base.NsPerCycle {
		if _, ok := cur.NsPerCycle[k]; !ok {
			fmt.Printf("%-18s in baseline but not measured on this host\n", k)
		}
	}
	if failed {
		fatal("perf gate failed against %s (refresh an intentionally changed baseline with -write)", target)
	}
}

// latestSnapshot returns the path of the highest-numbered BENCH_<n>.json in
// dir, or an error when none exists — a missing snapshot must fail the gate
// loudly, not let it pass vacuously.
func latestSnapshot(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, m := range matches {
		name := filepath.Base(m)
		num := strings.TrimSuffix(strings.TrimPrefix(name, "BENCH_"), ".json")
		n, err := strconv.Atoi(num)
		if err != nil || n < 0 {
			continue
		}
		if n > bestN {
			bestN, best = n, m
		}
	}
	if best == "" {
		return "", fmt.Errorf("no BENCH_<n>.json snapshot in %s; create one with -write BENCH_0.json", dir)
	}
	return best, nil
}

// parseTolerances parses comma-separated glob=fraction pairs.
func parseTolerances(spec string) (map[string]float64, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, pair := range strings.Split(spec, ",") {
		glob, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("-tolerances: %q is not glob=fraction", pair)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 0 {
			return nil, fmt.Errorf("-tolerances: bad fraction in %q", pair)
		}
		if _, err := path.Match(glob, "probe"); err != nil {
			return nil, fmt.Errorf("-tolerances: bad glob in %q: %v", pair, err)
		}
		out[glob] = f
	}
	return out, nil
}

// toleranceFor returns the override whose glob matches series k, or def. With
// several matching globs the most specific (longest) wins, ties broken
// lexically so the choice is deterministic.
func toleranceFor(k string, def float64, overrides map[string]float64) float64 {
	bestGlob := ""
	val := def
	for glob, f := range overrides {
		if ok, _ := path.Match(glob, k); !ok {
			continue
		}
		if len(glob) > len(bestGlob) || (len(glob) == len(bestGlob) && glob < bestGlob) {
			bestGlob, val = glob, f
		}
	}
	return val
}

// seriesOrder returns the measured series in canonical report order.
func seriesOrder(m map[string]float64) []string {
	canonical := []string{"fig12/sequential", "fig12/parallel", "mesh32/sequential", "mesh32/parallel", "job/build", "sweep/warm-point"}
	var out []string
	for _, k := range canonical {
		if _, ok := m[k]; ok {
			out = append(out, k)
		}
	}
	var rest []string
	for k := range m {
		if !contains(canonical, k) {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// measure returns the minimum ns/cycle over repeats runs of the kernel
// benchmark on a side×side mesh under uniform-random traffic at rate (at 8,
// 0.18 it mirrors BenchmarkFig12Sequential/Parallel in bench_test.go): warm
// the pools to the zero-alloc steady state once, then time n.Run for b.N
// cycles.
func measure(side int, rate float64, workers int) float64 {
	exp := noc.Experiment{
		Topology: noc.Mesh(side, side),
		Scheme:   noc.PseudoSB,
		Routing:  noc.XY,
		Policy:   noc.StaticVA,
		Workers:  workers,
		Warmup:   100,
		Measure:  1,
	}
	n := exp.Build()
	w := exp.SyntheticWorkload(noc.Synthetic{Pattern: noc.UniformRandom, Rate: rate})
	n.Run(w, 2000)
	return minNsPerOp(func(b *testing.B) { n.Run(w, b.N) })
}

// minNsPerOp returns the minimum ns/op over repeats runs of bench.
func minNsPerOp(bench func(b *testing.B)) float64 {
	best := 0.0
	for i := 0; i < repeats; i++ {
		r := testing.Benchmark(bench)
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// measureBuild returns the minimum ns per Experiment.Build() of a 24×24 mesh
// (mirrors BenchmarkNetworkBuild/mesh24x24 in bench_test.go) — the largest
// network the repository's benchmark builds per job.
func measureBuild() float64 {
	exp := noc.Experiment{
		Topology: noc.Mesh(24, 24),
		Scheme:   noc.PseudoSB,
		Routing:  noc.XY,
		Policy:   noc.StaticVA,
	}
	return minNsPerOp(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			builtNet = exp.Build()
		}
	})
}

// builtNet keeps measureBuild's result reachable so the build is not elided.
var builtNet *noc.Network

// sweepGridPoints is the warm-sweep benchmark's grid size (2 schemes × 32
// seeds); ns/point is the measured sweep wall time divided by it.
const sweepGridPoints = 64

// measureSweep returns the minimum ns per grid point of a 64-point sweep
// served entirely from the warm in-memory cache — the throughput ceiling of
// the batch API when the fleet's stores already hold every result.
func measureSweep() float64 {
	svc := service.New(service.Config{Workers: runtime.GOMAXPROCS(0), Chunk: 1000})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	}()
	sw := sweepapi.New(svc, sweepapi.Config{Inflight: 16})
	seeds := ""
	for i := 1; i <= sweepGridPoints/2; i++ {
		if i > 1 {
			seeds += ","
		}
		seeds += fmt.Sprint(i)
	}
	body := []byte(`{
	  "template": {"topology":"mesh4x4","scheme":"baseline","va":"static",
	               "warmup":50,"measure":200,
	               "workload":{"pattern":"uniform","rate":0.1}},
	  "axes": {"scheme": ["baseline","pseudo"], "seed": [` + seeds + `]}}`)
	run := func() {
		st, err := sw.Submit(body)
		if err != nil {
			fatal("warm sweep: %v", err)
		}
		fin, err := sw.Wait(context.Background(), st.ID)
		if err != nil || fin.State != "done" {
			fatal("warm sweep: state %s err %v", fin.State, err)
		}
	}
	run() // simulate the grid once; everything after is cache-served

	return minNsPerOp(func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			run()
		}
	}) / sweepGridPoints
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchcheck: "+format+"\n", args...)
	os.Exit(1)
}
