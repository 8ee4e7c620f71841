package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pseudocircuit/internal/service"
	"pseudocircuit/noc"
)

func near(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Abs(want) {
		t.Errorf("%s = %v, want %v within %.1f%%", what, got, want, 100*tol)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for p, want := range map[float64]float64{0: 10, 50: 30, 100: 50, 25: 20, 90: 46} {
		near(t, "percentile", percentile(xs, p), want, 1e-12)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
	if xs[0] != 50 {
		t.Error("percentile reordered its input")
	}
}

func TestBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{{120, 12}, {101, 10}, {100, 10}, {66, 7}} {
		if got := beyond(c.n, 90); got != c.want {
			t.Errorf("beyond(%d, 90) = %d, want %d", c.n, got, c.want)
		}
	}
}

// Reference values are statistics.quantiles(xs, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 2.9, 3.4, 3.0, 2.7, 3.3, 3.2, 2.8, 3.6, 3.05}, [3]float64{2.875, 3.075, 3.325}},
		{[]float64{5, 1, 3, 2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		for i, got := range []float64{q1, q2, q3} {
			near(t, "quartile", got, c.want[i], 1e-12)
		}
	}
	near(t, "spread", spread(cases[0].xs), 1, 1e-12)
}

// syntheticRun fabricates the timings of a run of equal jobs on a host whose
// speed changes along the way: speed(i) is the host's speed while op or lap
// i runs, 1 being nominal.
func syntheticRun(jobs int, jobSeconds float64, speed func(step int) float64) series {
	const lapSeconds = 0.004
	var s series
	for j := 0; j < jobs; j++ {
		s.laps = append(s.laps, lapSeconds/speed(2*j))
		s.ops = append(s.ops, jobSeconds/speed(2*j+1))
	}
	s.laps = append(s.laps, lapSeconds/speed(2*jobs))
	return s
}

// The point of calibrated time: a host that slows by 30 % half way through
// moves the raw figures by a fifth and the calibrated ones hardly at all.
func TestCalibrationAbsorbsHostSlowdown(t *testing.T) {
	const jobs, jobSeconds = 120, 0.29
	steady := syntheticRun(jobs, jobSeconds, func(int) float64 { return 1 })
	slowed := syntheticRun(jobs, jobSeconds, func(step int) float64 {
		if step >= jobs { // second half of the run
			return 0.7
		}
		return 1
	})

	near(t, "calibrated total", slowed.calibratedTotal(), steady.calibratedTotal(), 0.02)
	for _, p := range []float64{50, 90} {
		near(t, "calibrated percentile", percentile(slowed.calibrated(), p), percentile(steady.calibrated(), p), 0.02)
	}
	if raw := sum(slowed.ops) / sum(steady.ops); raw < 1.15 {
		t.Errorf("raw wall time moved only %.3fx: the synthetic slowdown is not biting", raw)
	}
	if raw := percentile(slowed.ops, 90) / percentile(steady.ops, 90); raw < 1.3 {
		t.Errorf("raw p90 moved only %.3fx", raw)
	}

	// One calibrated second is refOpsPerSec iterations, whatever the host.
	fast := syntheticRun(jobs, jobSeconds, func(int) float64 { return 2 })
	near(t, "calibrated total on a host twice as fast", fast.calibratedTotal(), steady.calibratedTotal(), 1e-9)
	near(t, "run rate", steady.runRate(), hostcalIters/0.004, 1e-9)
}

// setup_s is a median of repeats: one repeat that hit a stall does not move it.
func TestSetupMedianIgnoresAStall(t *testing.T) {
	clean := syntheticRun(25, 0.002, func(int) float64 { return 1 })
	stalled := syntheticRun(25, 0.002, func(int) float64 { return 1 })
	stalled.ops[7] *= 40
	near(t, "median set-up", median(stalled.calibrated()), median(clean.calibrated()), 1e-9)
}

func TestTimeOpsBracketsEveryOp(t *testing.T) {
	calls := 0
	s := timeOps(func(i int) (float64, bool) {
		calls++
		return float64(i + 1), i < 2
	})
	if calls != 3 || len(s.ops) != 3 || len(s.laps) != 4 {
		t.Fatalf("%d calls, %d ops, %d laps; want 3, 3, 4", calls, len(s.ops), len(s.laps))
	}
	for _, l := range s.laps {
		if l <= 0 {
			t.Fatalf("hostcal lap took %v s", l)
		}
	}
}

// The traced build maps an Experiment onto network.Config by hand. Every
// kind of experiment the benchmark traces must give the untraced Result, and
// the ledger must account for the whole job.
func TestTracedJobMatchesUntraced(t *testing.T) {
	cmpSpec := svcSweep(nil).Template
	_, _, cmpExp, err := service.Canonicalize(service.Request{Spec: cmpSpec.Spec, Workload: cmpSpec.Workload})
	if err != nil {
		t.Fatal(err)
	}
	cmpTraffic := func(e noc.Experiment) noc.Workload {
		w, err := cmpSpec.Workload.Workload(e)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	type traced struct {
		exp     noc.Experiment
		traffic func(noc.Experiment) noc.Workload
	}
	cases := map[string]traced{"cmp": {cmpExp, cmpTraffic}}
	for _, w := range directWorkloads {
		e := w.experiment(7)
		e.Topology = noc.Mesh(4, 4)
		e.Warmup, e.Measure = 100, 400
		cases[w.name] = traced{e, w.traffic}
	}
	for name, c := range cases {
		want := c.exp.RunOn(c.exp.Build(), c.traffic(c.exp))
		got := runTraced(c.exp, c.traffic)
		if got.result != want {
			t.Errorf("%s: traced result differs:\n got %+v\nwant %+v", name, got.result, want)
		}
		if parts := got.build + got.newWorkload + got.warmup + got.measure + got.collect; parts != got.total {
			t.Errorf("%s: ledger parts sum to %d ns of %d", name, parts, got.total)
		}
		layers := got.warmupLayers.plus(got.measureLayers)
		if ticks := layers.router.calls + layers.evc.calls; ticks == 0 || layers.tick.calls != int64(got.cycles) {
			t.Errorf("%s: %d router ticks, %d workload ticks over %d cycles", name, ticks, layers.tick.calls, got.cycles)
		}
		if (layers.evc.calls > 0) != c.exp.UseEVC {
			t.Errorf("%s: evc ticks %d with UseEVC %v", name, layers.evc.calls, c.exp.UseEVC)
		}
	}
}

// The sliding seed window must give exactly one cold, two memory-hit and one
// store-hit block per sweep from the first job on.
func TestSweepWindowSteadyState(t *testing.T) {
	o := options{seed: 3}
	tier, err := openTier(o, filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer tier.close()
	for j := 0; j < 5; j++ {
		st, results, err := tier.sweep(svcJobSeeds(o, j))
		if err != nil {
			t.Fatal(err)
		}
		if p := tierProblem(st, results); p != "" {
			t.Errorf("sweep %d: %s", j, p)
		}
	}
}

// BENCHMARK.json is the contract; the tables in metrics.go are what the
// runner prints. They must say the same thing.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" || len(b.Command) != 2 || b.Command[1] != "bench/run.sh" {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
	want := workloadWhy()
	if len(b.Workloads) != len(want) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(want))
	}
	for i, w := range b.Workloads {
		if w.Name != want[i][0] || w.Why != want[i][1] {
			t.Errorf("workload %d: %q %q, want %q %q", i, w.Name, w.Why, want[i][0], want[i][1])
		}
	}
	check := func(kind string, got []metric, defs []metricDef, bounded bool) {
		if len(got) != len(defs) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(defs))
		}
		for i, d := range defs {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound %v, want %v (bounded %v)", kind, d.name, g.Bound, d.bound, bounded)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}
