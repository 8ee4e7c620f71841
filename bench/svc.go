package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pseudocircuit/internal/service"
	"pseudocircuit/internal/store"
	"pseudocircuit/internal/sweepapi"
	"pseudocircuit/noc"
	"pseudocircuit/nocdclient"
)

// svc-cmp-sweep is the service tier at work. Each job is one sweep of
// svcPoints CMP points over a window of seeds that slides by one block per
// job, so that in every sweep one block of points is new (cold: simulated),
// two are still in the memory cache and one has been evicted from memory and
// comes back from the disk store:
//
//	block k is cold in sweep k-3, a memory hit in k-2 (still cached from
//	the cold run), a store hit in k-1 (evicted meanwhile, promoted again)
//	and a memory hit in k (cached by the promotion).
//
// That needs a first-in-first-out memory cache of exactly two blocks and
// points submitted one at a time in grid order (sweep inflight 1), and it
// needs the right start: the warm-up sweep runs blocks 1, 0, 2 cold, which
// leaves 0 and 2 in memory and 1 on disk only. The counts are checked on
// every sweep.
//
// The sweeps that are timed run through a tier in this process: the same
// sweepapi.Manager over service.Manager over store that cmd/nocd assembles,
// configured as the daemon is. A real nocd is started too: its start-up is
// setup_s, and the first sweeps of every run also go to it through
// nocdclient.SubmitSweep and must give the tier's results. It is not on the
// timed path for two reasons, both measured (README.md, "How a sweep is
// timed"): SubmitSweep's caller waits on the daemon's 100 ms stream ticker,
// not on the sweep; and work done in another process runs on another CPU
// than the laps that are to calibrate it, which doubles to quintuples the
// spread between identical runs.
const (
	svcName = "svc-cmp-sweep"
	svcWhy  = "sweepapi, service, store and the closed-loop cmp traffic do the work, checked against a real nocd; cold, memory-hit and disk-hit paths run in every job"

	svcBlock   = 8
	svcPoints  = 4 * svcBlock
	svcCache   = 2 * svcBlock
	svcWarmup  = 200
	svcMeasure = 1000
	// svcDigestJobs sweeps (of svcPoints results each) feed the digest.
	svcDigestJobs = 2
	// svcSetups is how many daemons the set-up figure is the median of.
	svcSetups = 100
	// svcStreamed is how many sweeps the traced run sends through
	// nocdclient.SubmitSweep after its job loop.
	svcStreamed = 5
	// storeCap is the disk store's size limit, nocd's default.
	storeCap = 256 << 20
)

// svcSeeds returns the seeds of the given blocks, in that order.
func svcSeeds(o options, blocks ...int) []any {
	var seeds []any
	for _, b := range blocks {
		for i := 0; i < svcBlock; i++ {
			seeds = append(seeds, o.seed+1+uint64(b*svcBlock+i))
		}
	}
	return seeds
}

func svcJobSeeds(o options, j int) []any { return svcSeeds(o, j, j+1, j+2, j+3) }

func svcSweep(seeds []any) nocdclient.SweepRequest {
	return nocdclient.SweepRequest{
		Template: nocdclient.Request{
			Spec: noc.Spec{Topology: "cmesh4x4x4", Scheme: "pseudo+s+b", Routing: "xy", VA: "static",
				Warmup: svcWarmup, Measure: svcMeasure},
			Workload: noc.WorkloadSpec{Kind: "cmp", Benchmark: "fma3d"},
		},
		Axes: map[string][]any{"seed": seeds},
	}
}

// httpc bounds every plain request to the daemon, and sweepTimeout every
// sweep, so a daemon that hangs fails the run and cannot stall it.
var httpc = &http.Client{Timeout: 10 * time.Second}

const sweepTimeout = time.Minute

// daemon is one running nocd.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *nocdclient.Client
	log    bytes.Buffer
}

// startDaemon spawns nocd on a free port with an empty store in dir and
// returns once /readyz answers, with the wall seconds that took.
func startDaemon(nocd, dir string) (*daemon, float64, error) {
	if nocd == "" {
		return nil, 0, errors.New("no nocd binary: run through bench/run.sh, which builds it and passes -nocd")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()

	d := &daemon{base: "http://" + addr}
	d.client = nocdclient.New(d.base)
	d.cmd = exec.Command(nocd, "-listen", addr, "-workers", "1", "-sweep-inflight", "1",
		"-cache", strconv.Itoa(svcCache), "-store-dir", dir)
	d.cmd.Stderr = &d.log
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	for {
		resp, err := httpc.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start).Seconds(), nil
			}
		}
		if time.Since(start) > 20*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("nocd not ready after 20 s: %s", d.log.String())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop asks the daemon to drain and waits until the process has ended.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
}

// sweepRun is one finished sweep with its points in grid order.
type sweepRun struct {
	final  nocdclient.SweepStatus
	points []nocdclient.SweepPoint
	waited float64 // sweepWait only: wall seconds until ?wait=1 answered
}

// sweepStream runs a sweep the way nocdclient's callers do: SubmitSweep and
// its live stream, to the end.
func (d *daemon) sweepStream(seeds []any) (sweepRun, error) {
	var run sweepRun
	ctx, cancel := context.WithTimeout(context.Background(), sweepTimeout)
	defer cancel()
	st, err := d.client.SubmitSweep(ctx, svcSweep(seeds))
	if err != nil {
		return run, err
	}
	defer st.Close()
	for {
		p, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return run, err
		}
		run.points = append(run.points, p)
	}
	run.final, _ = st.Final()
	run.sortPoints()
	return run, nil
}

// sweepLine is one line of the daemon's sweep stream.
type sweepLine struct {
	Type  string                  `json:"type"`
	Sweep *nocdclient.SweepStatus `json:"sweep"`
	Point *nocdclient.SweepPoint  `json:"point"`
}

// sweepWait runs a sweep without meeting the live stream's ticker: POST
// /sweeps?wait=1 answers with the final status once the last point is done,
// and GET /sweeps/{id}?watch=1 on a finished sweep replays every point and
// the end line at once.
func (d *daemon) sweepWait(seeds []any) (sweepRun, error) {
	var run sweepRun
	body, _ := json.Marshal(svcSweep(seeds)) // strings and numbers: cannot fail
	start := time.Now()
	resp, err := httpc.Post(d.base+"/sweeps?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return run, err
	}
	err = json.NewDecoder(resp.Body).Decode(&run.final)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return run, fmt.Errorf("POST /sweeps?wait=1: status %d: %v", resp.StatusCode, err)
	}
	run.waited = time.Since(start).Seconds()

	resp, err = httpc.Get(d.base + "/sweeps/" + run.final.ID + "?watch=1")
	if err != nil {
		return run, err
	}
	defer resp.Body.Close()
	ended := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line sweepLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return run, fmt.Errorf("sweep %s stream: %w", run.final.ID, err)
		}
		switch {
		case line.Type == "point" && line.Point != nil:
			run.points = append(run.points, *line.Point)
		case line.Type == "end" && line.Sweep != nil:
			run.final, ended = *line.Sweep, true
		}
	}
	if err := sc.Err(); err != nil || !ended {
		return run, fmt.Errorf("sweep %s stream stopped before its end line: %v", run.final.ID, err)
	}
	run.sortPoints()
	return run, nil
}

func (r *sweepRun) sortPoints() {
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].Index < r.points[b].Index })
}

// problem names what is wrong with a finished sweep, or "" when every point
// is done with a plausible result and the hit counts are exactly as planned.
func (r sweepRun) problem(points, cacheHits, storeHits int) string {
	f := r.final
	if f.State != "done" || f.Done != points || f.Failed != 0 || len(r.points) != points {
		return fmt.Sprintf("state %s, %d of %d points done, %d failed, %d streamed", f.State, f.Done, points, f.Failed, len(r.points))
	}
	if f.CacheHits != cacheHits || f.StoreHits != storeHits {
		return fmt.Sprintf("%d cache hits of which %d from the store, want %d and %d", f.CacheHits, f.StoreHits, cacheHits, storeHits)
	}
	for _, p := range r.points {
		if p.Result == nil || !checkResult(*p.Result, svcMeasure) {
			return fmt.Sprintf("point %d has no valid result", p.Index)
		}
	}
	return ""
}

// counters reads the daemon's /metrics into a map of unlabelled samples.
func (d *daemon) counters() (map[string]float64, error) {
	resp, err := httpc.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// directPoint runs a point's canonical spec through noc alone.
func directPoint(spec nocdclient.Request) (noc.Result, error) {
	_, _, exp, err := service.Canonicalize(service.Request{Spec: spec.Spec, Workload: spec.Workload})
	if err != nil {
		return noc.Result{}, err
	}
	w, err := spec.Workload.Workload(exp)
	if err != nil {
		return noc.Result{}, err
	}
	return exp.Run(w), nil
}

// tier is the service tier in this process, assembled as cmd/nocd does.
type tier struct {
	svc    *service.Manager
	sweeps *sweepapi.Manager
}

// openTier builds a tier over a fresh store in dir, with the daemon's
// settings, and runs the warm-up sweep.
func openTier(o options, dir string) (*tier, error) {
	st, err := store.Open(dir, storeCap)
	if err != nil {
		return nil, err
	}
	t := &tier{svc: service.New(service.Config{Workers: 1, CacheCap: svcCache, Store: st})}
	t.sweeps = sweepapi.New(t.svc, sweepapi.Config{Inflight: 1})
	if _, _, err := t.sweep(svcSeeds(o, 1, 0, 2)); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *tier) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	t.sweeps.Shutdown(ctx)
	t.svc.Shutdown(ctx)
}

// sweep is one job as a caller of the tier runs it: submit the grid, wait
// for the last point, collect the results in grid order.
func (t *tier) sweep(seeds []any) (sweepapi.Status, []noc.Result, error) {
	body, _ := json.Marshal(svcSweep(seeds)) // strings and numbers: cannot fail
	st, err := t.sweeps.Submit(body)
	if err != nil {
		return st, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), sweepTimeout)
	defer cancel()
	if st, err = t.sweeps.Wait(ctx, st.ID); err != nil {
		return st, nil, err
	}
	points, _, _, _ := t.sweeps.PointsSince(st.ID, 0)
	results := make([]noc.Result, len(points))
	for _, p := range points {
		if p.Result == nil || p.Index >= len(results) {
			return st, nil, fmt.Errorf("sweep %s: point %d has no result", st.ID, p.Index)
		}
		results[p.Index] = *p.Result
	}
	return st, results, nil
}

// tierProblem is sweepRun.problem for a sweep through the tier.
func tierProblem(st sweepapi.Status, results []noc.Result) string {
	if st.State != "done" || st.Done != svcPoints || len(results) != svcPoints {
		return fmt.Sprintf("state %s, %d of %d points done, %d results", st.State, st.Done, svcPoints, len(results))
	}
	if st.CacheHits != 3*svcBlock || st.StoreHits != svcBlock {
		return fmt.Sprintf("%d cache hits of which %d from the store, want %d and %d", st.CacheHits, st.StoreHits, 3*svcBlock, svcBlock)
	}
	for i, r := range results {
		if !checkResult(r, svcMeasure) {
			return fmt.Sprintf("point %d has no valid result", i)
		}
	}
	return ""
}

// svcSession is a daemon warmed into the steady state, with what the job
// loop collects.
type svcSession struct {
	d      *daemon
	before map[string]float64
	runs   []sweepRun
	ok     []bool
}

// openSession starts the measurement daemon and runs the warm-up sweep.
func openSession(o options, tmp string, out *outcome) (*svcSession, error) {
	d, _, err := startDaemon(o.nocd, filepath.Join(tmp, "store"))
	if err != nil {
		return nil, err
	}
	s := &svcSession{d: d}
	warm, err := d.sweepStream(svcSeeds(o, 1, 0, 2))
	if err == nil {
		if p := warm.problem(3*svcBlock, 0, 0); p != "" {
			out.failf("warm-up sweep: %s", p)
		}
		s.before, err = d.counters()
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return s, nil
}

// job runs sweep j through the daemon, by SubmitSweep's stream or by
// sweepWait, and returns its wall seconds as the client sees them.
func (s *svcSession) job(o options, j int, out *outcome, sweep func([]any) (sweepRun, error)) (float64, error) {
	var run sweepRun
	var err error
	d := timed(func() { run, err = sweep(svcJobSeeds(o, j)) })
	if err != nil {
		return 0, fmt.Errorf("sweep %d: %w", j, err)
	}
	p := run.problem(svcPoints, 3*svcBlock, svcBlock)
	if p != "" {
		out.failf("sweep %d: %s", j, p)
	}
	s.runs = append(s.runs, run)
	s.ok = append(s.ok, p == "")
	return d, nil
}

// results flattens the results of sweeps from to to (exclusive) in job and
// index order.
func (s *svcSession) results(from, to int) []noc.Result {
	var out []noc.Result
	for _, r := range s.runs[from:to] {
		for _, p := range r.points {
			if p.Result != nil {
				out = append(out, *p.Result)
			}
		}
	}
	return out
}

// verify runs the untimed checks on the whole session: a sample of sweep
// 0's points against direct noc runs, and the daemon's counters against the
// planned cold / memory-hit / store-hit counts. It returns the counters'
// growth over the job loop.
func (s *svcSession) verify(out *outcome) (map[string]float64, error) {
	if len(s.runs[0].points) == svcPoints {
		// One memory hit, one store hit, two cold points.
		for _, i := range []int{0, svcBlock, 3 * svcBlock, svcPoints - 1} {
			p := s.runs[0].points[i]
			want, err := directPoint(p.Spec)
			if err != nil {
				return nil, err
			}
			if p.Result == nil || *p.Result != want {
				s.ok[0] = false
				out.failf("sweep 0 point %d: daemon result differs from a direct noc run", i)
			}
		}
	}
	after, err := s.d.counters()
	if err != nil {
		return nil, err
	}
	grew := map[string]float64{}
	for k, v := range after {
		grew[k] = v - s.before[k]
	}
	jobs := float64(len(s.runs))
	for name, perJob := range map[string]float64{
		"nocd_cache_misses_total": svcBlock,
		"nocd_cache_hits_total":   3 * svcBlock,
		"nocd_store_hits_total":   svcBlock,
	} {
		if grew[name] != perJob*jobs {
			out.failf("daemon counter %s grew by %v over %v sweeps, want %v", name, grew[name], jobs, perJob*jobs)
		}
	}
	return grew, nil
}

// scratchDir makes a directory under the output directory for the stores of
// one run's daemons; the caller removes it.
func scratchDir(o options) (string, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(o.outDir, "svc-")
}

// daemonDigest is the untraced run's use of the real daemon, untimed: the
// first sweeps through nocdclient.SubmitSweep, checked point by point,
// against direct noc runs and against the daemon's own counters. It returns
// the digest of their results, and the daemon has ended when it returns.
func daemonDigest(o options, tmp string, out *outcome) (string, error) {
	s, err := openSession(o, tmp, out)
	if err != nil {
		return "", err
	}
	defer s.d.stop()
	for j := 0; j < svcDigestJobs; j++ {
		if _, err := s.job(o, j, out, s.d.sweepStream); err != nil {
			return "", err
		}
	}
	if _, err := s.verify(out); err != nil {
		return "", err
	}
	return digestOf(s.results(0, svcDigestJobs)), nil
}

func svcUntraced(o options) (outcome, error) {
	out := outcome{metrics: map[string]float64{}}
	// One P: a sweep's work hops between the tier's goroutines, and on one P
	// they share a thread with the laps, as jobs and laps do in the direct
	// workloads; the collector's work then counts as job time.
	runtime.GOMAXPROCS(1)
	tmp, err := scratchDir(o)
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(tmp)

	// Set-up: spawn a daemon with its store opened until it answers /readyz.
	setup := timeOps(func(i int) (float64, bool) {
		var d *daemon
		var ready float64
		if d, ready, err = startDaemon(o.nocd, filepath.Join(tmp, "setup-"+strconv.Itoa(i))); err != nil {
			return 0, false
		}
		d.stop()
		return ready, i+1 < svcSetups
	})
	if err != nil {
		return out, err
	}
	out.metrics["setup_s"] = median(setup.calibrated())

	viaDaemon, err := daemonDigest(o, tmp, &out)
	if err != nil {
		return out, err
	}

	t, err := openTier(o, filepath.Join(tmp, "store-tier"))
	if err != nil {
		return out, err
	}
	defer t.close()
	var ok []bool
	var digested []noc.Result
	cycles := 0.0
	start := time.Now()
	jobs := timeOps(func(j int) (float64, bool) {
		var st sweepapi.Status
		var results []noc.Result
		d := timed(func() { st, results, err = t.sweep(svcJobSeeds(o, j)) })
		if err != nil {
			return 0, false
		}
		p := tierProblem(st, results)
		if p != "" {
			out.failf("sweep %d: %s", j, p)
		}
		ok = append(ok, p == "")
		for _, r := range results {
			cycles += float64(r.Cycles)
		}
		if j < svcDigestJobs {
			digested = append(digested, results...)
		}
		if j+1 == fixedJobs {
			out.metrics["peak_rss_mib"] = peakRSSMiB(os.Getpid())
		}
		return d, j+1 < fixedJobs || time.Since(start).Seconds() < o.seconds
	})
	if err != nil {
		return out, err
	}
	out.digest = digestOf(digested)
	if viaDaemon != out.digest {
		for j := 0; j < svcDigestJobs; j++ {
			ok[j] = false
		}
		out.failf("the first %d sweeps differ between the daemon (%s) and the tier in this process (%s)", svcDigestJobs, viaDaemon, out.digest)
	}
	endToEndMetrics(&out, jobs, ok, cycles)
	return out, nil
}

// microBench reports the median calibrated seconds of one call of f, timed
// in batches because a single call is far shorter than a hostcal lap.
func microBench(f func()) float64 {
	const batches, perBatch = 10, 20
	s := timeOps(func(i int) (float64, bool) {
		d := timed(func() {
			for k := 0; k < perBatch; k++ {
				f()
			}
		})
		return d / perBatch, i+1 < batches
	})
	return median(s.calibrated())
}

// svcTraced measures the service tier layer by layer, by direct calls into
// sweepapi, service and store in this process, next to the same daemon job
// loop the untraced run times.
func svcTraced(o options) (outcome, error) {
	out := outcome{metrics: map[string]float64{}}
	runtime.GOMAXPROCS(1) // as svcUntraced
	m := out.metrics
	start := time.Now()
	tmp, err := scratchDir(o)
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(tmp)
	var rec recorder
	var digested []noc.Result
	cost := measureTimerCost()

	// Request handling: parse a sweep body, decode and canonicalize a point.
	body, _ := json.Marshal(svcSweep(svcJobSeeds(o, 0)))
	plan, err := sweepapi.Parse(body, 0)
	if err != nil {
		return out, err
	}
	pointJSON, _ := json.Marshal(plan.Points[0].Req)
	m["sweepapi.parse_us"] = 1e6 * microBench(func() { sweepapi.Parse(body, 0) })
	m["service.decode_us"] = 1e6 * microBench(func() { service.DecodeRequest(pointJSON) })
	m["service.canonicalize_us"] = 1e6 * microBench(func() { service.Canonicalize(plan.Points[0].Req) })

	if err := storeLayer(m, filepath.Join(tmp, "store-direct")); err != nil {
		return out, err
	}
	layers, err := pointLayers(o, &out, &rec, cost, filepath.Join(tmp, "store-points"))
	if err != nil {
		return out, err
	}

	// The job loop, each sweep through the tier preceded by the same sweep
	// through a real daemon in the same cache state (?wait=1, so no ticker):
	// the difference is what the process boundary and HTTP cost.
	t, err := openTier(o, filepath.Join(tmp, "store-tier"))
	if err != nil {
		return out, err
	}
	defer t.close()
	s, err := openSession(o, tmp, &out)
	if err != nil {
		return out, err
	}
	defer s.d.stop()
	var mem memDelta
	ops := timeOps(func(i int) (float64, bool) {
		j := i / 2
		t0 := nowNS()
		if i%2 == 0 {
			var d float64
			if d, err = s.job(o, j, &out, s.d.sweepWait); err != nil {
				return 0, false
			}
			total, waited := int64(d*1e9), int64(s.runs[j].waited*1e9)
			root := rec.add("nocd.sweep", 0, j, t0, total, 1)
			rec.add("nocd.sweep_wait", root, j, t0, waited, 1)
			rec.add("nocd.sweep_points", root, j, t0+waited, total-waited, svcPoints)
			return d, true
		}
		var st sweepapi.Status
		var results []noc.Result
		d := mem.around(func() { st, results, err = t.sweep(svcJobSeeds(o, j)) })
		if err != nil {
			return 0, false
		}
		good := s.ok[j]
		if p := tierProblem(st, results); p != "" {
			good = false
			out.failf("sweep %d: %s", j, p)
		}
		if viaDaemon := s.results(j, j+1); len(viaDaemon) != len(results) || digestOf(viaDaemon) != digestOf(results) {
			good = false
			out.failf("sweep %d: the daemon's results differ from the tier's in this process", j)
		}
		if !good {
			out.failed++
		}
		if j < svcDigestJobs {
			digested = append(digested, results...)
		}
		rec.add("job", 0, j, t0, int64(d*1e9), svcPoints)
		return d, j+1 < svcDigestJobs || time.Since(start).Seconds() < o.seconds
	})
	if err != nil {
		return out, err
	}
	grew, err := s.verify(&out)
	if err != nil {
		return out, err
	}
	jobs := float64(len(s.runs))
	out.attempted = len(s.runs)

	// What nocdclient.SubmitSweep's caller waits for the next sweeps of the
	// window, in raw wall time: most of it is the stream's ticker, which a
	// faster host does not shorten.
	var streamed []float64
	for k := 0; k < svcStreamed; k++ {
		var run sweepRun
		d := timed(func() { run, err = s.d.sweepStream(svcJobSeeds(o, len(s.runs)+k)) })
		if err != nil {
			return out, err
		}
		if p := run.problem(svcPoints, 3*svcBlock, svcBlock); p != "" {
			out.failf("streamed sweep %d: %s", k, p)
		}
		streamed = append(streamed, d*1e3)
	}
	m["nocdclient.submit_sweep_ms"] = median(streamed)

	viaDaemon, inProcess := everyOther(ops.calibrated(), 0), everyOther(ops.calibrated(), 1)
	m["job_ms_p90"] = 1e3 * percentile(inProcess, 90)
	m["nocd.http_overhead_ms"] = 1e3 * (median(viaDaemon) - median(inProcess))
	m["service.cold_runs"] = grew["nocd_cache_misses_total"] / jobs
	m["service.store_hits"] = grew["nocd_store_hits_total"] / jobs
	m["service.mem_hits"] = (grew["nocd_cache_hits_total"] - grew["nocd_store_hits_total"]) / jobs
	m["store.evictions"] = grew["nocd_store_evictions_total"] / jobs
	mem.report(m, jobs)

	for name, v := range layers {
		m[name] = v
	}
	out.digest = digestOf(digested)
	modelMetrics(m, digested)
	m["model.result_digest"] = digest48(out.digest)
	wall := sum(everyOther(ops.ops, 1))
	m["host.refops_per_s"] = ops.runRate()
	m["host.wall_s"] = wall
	m["host.raw_cycles_per_wall_s"] = jobs * svcPoints * svcMeasure / wall
	m["trace.timer_pair_ns"] = cost.pair

	_, err = rec.write(o.outDir, svcName)
	return out, err
}

// storeLayer times internal/store by itself: Put and Get of result-sized
// payloads under fresh keys.
func storeLayer(m map[string]float64, dir string) error {
	st, err := store.Open(dir, storeCap)
	if err != nil {
		return err
	}
	payload, _ := json.Marshal(noc.Result{AvgLatency: 31.4159, Reusability: 0.27, EnergyPJ: 1.25e6,
		PacketsDelivered: 1000, FlitsDelivered: 3000, Cycles: svcMeasure})
	key := func(i int) string { return fmt.Sprintf("%064x", i) }
	puts, gets := 0, 0
	m["store.put_us"] = 1e6 * microBench(func() {
		if e := st.Put(key(puts), payload); e != nil {
			err = e
		}
		puts++
	})
	m["store.get_us"] = 1e6 * microBench(func() {
		if _, ok := st.Get(key(gets)); !ok {
			err = fmt.Errorf("store: key %d missing after Put", gets)
		}
		gets++
	})
	m["store.bytes_per_entry"] = float64(st.Bytes()) / float64(st.Len())
	return err
}

// pointLayers times one point along each path through service.Manager and,
// traced, through noc alone. A memory cache of one entry makes the paths
// easy to reach: after point k ran cold it is the cached one, so k again is
// a memory hit and k-1, evicted by k, is a store hit.
func pointLayers(o options, out *outcome, rec *recorder, cost timerCost, dir string) (map[string]float64, error) {
	st, err := store.Open(dir, storeCap)
	if err != nil {
		return nil, err
	}
	mgr := service.New(service.Config{Workers: 1, CacheCap: 1, Store: st})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mgr.Shutdown(ctx)
	}()
	// Seeds far from the sweep windows, so nothing here is ever a sweep's.
	request := func(k int) service.Request {
		t := svcSweep(nil).Template
		r := service.Request{Spec: t.Spec, Workload: t.Workload}
		r.Seed = o.seed + 1_000_000 + uint64(k)
		return r
	}
	submit := func(k int) (service.Job, error) {
		j, err := mgr.Submit(request(k))
		if err != nil || j.State.Terminal() {
			return j, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), sweepTimeout)
		defer cancel()
		return mgr.Wait(ctx, j.ID)
	}
	if _, err := submit(0); err != nil {
		return nil, err
	}

	const rounds = 24
	const (
		cold = iota
		memHit
		storeHit
		direct
		paths
	)
	var coldJob service.Job
	var ledger []tracedJob
	names := [paths]string{"service.cold_point", "service.mem_hit", "service.store_hit", "noc.direct_point"}
	ops := timeOps(func(i int) (float64, bool) {
		k := 1 + i/paths
		t0 := nowNS()
		var d float64
		switch i % paths {
		case cold:
			d = timed(func() { coldJob, err = submit(k) })
			if err == nil && (coldJob.CacheHit || coldJob.Result == nil) {
				out.failf("point %d: expected a cold run", k)
			}
		case memHit, storeHit:
			var j service.Job
			want := k
			if i%paths == storeHit {
				want = k - 1
			}
			d = timed(func() { j, err = submit(want) })
			if err == nil && (!j.CacheHit || j.StoreHit != (i%paths == storeHit)) {
				out.failf("point %d: cacheHit %v storeHit %v on path %s", want, j.CacheHit, j.StoreHit, names[i%paths])
			}
		case direct:
			_, _, exp, e := service.Canonicalize(request(k))
			if err = e; err != nil {
				break
			}
			t := runTraced(exp, func(e noc.Experiment) noc.Workload {
				w, _ := request(k).Workload.Workload(e) // canonicalized above
				return w
			})
			ledger = append(ledger, t)
			rec.addJob(-k, t, "cmp")
			d = float64(t.total) / 1e9
			if coldJob.Result == nil || *coldJob.Result != t.result {
				out.failf("point %d: service result differs from a direct traced noc run", k)
			}
		}
		if i%paths != direct {
			rec.add(names[i%paths], 0, -k, t0, int64(d*1e9), 1)
		}
		return d, err == nil && i+1 < rounds*paths
	})
	if err != nil {
		return nil, err
	}

	var byPath [paths][]float64
	for i, c := range ops.calibrated() {
		byPath[i%paths] = append(byPath[i%paths], c)
	}
	// The direct run is traced; take the timer's cost out before comparing.
	k := ops.runRate() / refOpsPerSec
	m := map[string]float64{}
	directMS := k * ledgerMetrics(m, ledger, cost, k, "cmp") / float64(len(ledger)) / 1e6
	m["service.cold_point_ms"] = 1e3 * median(byPath[cold])
	m["service.mem_hit_us"] = 1e6 * median(byPath[memHit])
	m["service.store_hit_us"] = 1e6 * median(byPath[storeHit])
	m["service.tax_ratio"] = m["service.cold_point_ms"] / directMS
	return m, nil
}
