// Package service is the simulation service behind the nocd daemon: a job
// manager that turns the one-shot experiment API into servable work.
//
// Shape of the subsystem:
//
//   - Submissions are canonicalized (spec.go) and content-addressed by the
//     SHA-256 of their canonical encoding. Where a key's result may come
//     from, and in what order, is one function (walk): the memory cache, an
//     identical queued or running job (singleflight), the disk store, the
//     key's owner elsewhere in the fleet, and only then a simulation here.
//     Submit is its non-blocking form, Do the whole walk to a terminal job.
//   - New work enters a bounded FIFO queue; a full queue rejects the
//     submission (backpressure) rather than buffering without limit.
//   - A fixed pool of workers drains the queue; every job builds its own
//     network and shares nothing with the next.
//   - Every queued or running job carries a context; cancelling it stops
//     the simulation at the next chunk boundary, at most chunk cycles on
//     (noc.Experiment.RunWindows). Shutdown drains the queue gracefully
//     and escalates to cancelling in-flight jobs when the drain deadline
//     passes.
//
// Results are bit-identical to CLI runs of the same spec: the manager
// changes scheduling only (who runs the simulation when), never the
// simulation itself, and every experiment remains self-contained and
// deterministic.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pseudocircuit/internal/store"
	"pseudocircuit/internal/telemetry"
	"pseudocircuit/noc"
	"pseudocircuit/nocdclient"
)

// Config parameterizes a Manager. Zero values select the defaults.
type Config struct {
	// Workers is the worker-goroutine count (default GOMAXPROCS).
	Workers int
	// QueueCap bounds the FIFO of jobs waiting for a worker (default 64).
	QueueCap int
	// CacheCap bounds the result cache, oldest-inserted evicted first
	// (default 1024).
	CacheCap int
	// JobsCap bounds retained job records; oldest terminal records are
	// evicted first (default 4096).
	JobsCap int
	// SpanCap bounds the job-lifecycle span ring (default 4096).
	SpanCap int
	// Store, when non-nil, persists results on disk under their canonical
	// spec hash: the in-memory cache is consulted first, then the store, and
	// every completed simulation is written through — so the cache survives
	// restarts. One process owns a store directory. Nil keeps the cache
	// memory-only.
	Store *store.Store
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 1024
	}
	if c.JobsCap <= 0 {
		c.JobsCap = 4096
	}
	if c.SpanCap <= 0 {
		c.SpanCap = 4096
	}
	return c
}

// State, Job and Request (spec.go) are the wire schema, declared once in
// nocdclient; the manager fills them, the transport encodes them.
type (
	State = nocdclient.State
	Job   = nocdclient.Job
)

const (
	StateQueued   = nocdclient.StateQueued
	StateRunning  = nocdclient.StateRunning
	StateDone     = nocdclient.StateDone
	StateFailed   = nocdclient.StateFailed
	StateCanceled = nocdclient.StateCanceled
)

// Where a walk found its result. The fleet tier reports the same strings.
const (
	RouteLocal    = "local"    // on this node, which owns the key or held the result
	RouteRemote   = "remote"   // served by the key's owner elsewhere
	RouteFallback = "fallback" // on this node, because no owner answered
)

// Fleet is the walk's last tier before simulating here: the nodes that own
// the key elsewhere. Dispatch either serves the result from a peer
// (RouteRemote) or tells the walk to run the job on this node (RouteLocal
// when this node is the owner, RouteFallback when every responsible peer
// was unreachable). A non-nil error ends the walk.
type Fleet interface {
	Dispatch(ctx context.Context, key string, req Request) (res noc.Result, route string, err error)
}

// Submission/lifecycle errors the transport maps to HTTP statuses.
var (
	ErrQueueFull    = errors.New("service: job queue full")
	ErrShuttingDown = errors.New("service: shutting down")
	ErrUnknownJob   = errors.New("service: unknown job")
)

// job is the record behind Job snapshots, kept until JobsCap evicts it. Of
// the embedded snapshot, ID, Key, Request and CyclesTotal are fixed at
// creation; State, the hit marks, CyclesDone, Result, Error and the frozen
// timings change under mu; Dedup and a live job's timings are filled in per
// snapshot. Result is shared, never copied: every record, cache entry and
// sweep point of a key holds the one *noc.Result, and nothing writes
// through it.
type job struct {
	Job
	done chan struct{} // closed when the job reaches a terminal state

	mu  sync.Mutex
	run *run // while queued or running; nil once terminal, and for hits
}

// run is what a job needs only until it ends: the experiment, the context
// that cancels it, and its wall-clock marks. The terminal transition
// freezes the timings into Job and drops it.
type run struct {
	exp      noc.Experiment
	ctx      context.Context
	cancel   context.CancelFunc
	enqueued time.Time
	started  time.Time // zero while queued
}

// hitDone is every hit's done channel: a hit is terminal on arrival.
var hitDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// timing is a job's wall-clock figures from its marks, with the run
// measured up to end.
func (r *run) timing(end time.Time, cyclesDone int) (queueWaitMS, runMS, cyclesPerSec float64) {
	queueWaitMS = float64(r.started.Sub(r.enqueued)) / float64(time.Millisecond)
	runFor := end.Sub(r.started)
	runMS = float64(runFor) / float64(time.Millisecond)
	if secs := runFor.Seconds(); secs > 0 && cyclesDone > 0 {
		cyclesPerSec = float64(cyclesDone) / secs
	}
	return queueWaitMS, runMS, cyclesPerSec
}

func (j *job) snapshot() Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := j.Job
	if r := j.run; r != nil && !r.started.IsZero() {
		s.QueueWaitMS, s.RunMS, s.CyclesPerSec = r.timing(time.Now(), s.CyclesDone)
		if s.CyclesPerSec > 0 {
			s.ETASeconds = float64(s.CyclesTotal-s.CyclesDone) / s.CyclesPerSec
		}
	}
	return s
}

// stop cancels j's run, if it still has one: stopping a terminal job is a
// no-op.
func (j *job) stop() {
	j.mu.Lock()
	if j.run != nil {
		j.run.cancel()
	}
	j.mu.Unlock()
}

// Manager owns the queue, the workers, the cache and the job records.
type Manager struct {
	cfg   Config
	queue chan *job
	wg    sync.WaitGroup
	ins   *instruments

	mu         sync.Mutex
	closed     bool
	seq        int
	jobs       map[string]*job
	jobOrder   []string
	inflight   map[string]*job // by key: queued or running, singleflight
	cache      map[string]*noc.Result
	cacheOrder []string
}

// New starts a manager and its workers.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:      cfg,
		queue:    make(chan *job, cfg.QueueCap),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		cache:    make(map[string]*noc.Result),
	}
	m.ins = newInstruments(m, cfg.SpanCap)
	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit is the walk's non-blocking form: it answers from the memory cache,
// an identical in-flight job or the disk store when it can, and otherwise
// enqueues a new job and returns. Errors: ErrBadRequest (wrapped, invalid
// spec), ErrQueueFull, ErrShuttingDown.
func (m *Manager) Submit(r Request) (Job, error) {
	j, _, err := m.walk(context.Background(), r, nil, false)
	return j, err
}

// Do runs the whole walk to a terminal job: every local tier, then fleet
// (nil: there is none), then a simulation here, waiting out a full queue
// and the run itself. It also says where the result came from (a Route
// constant). When ctx ends first the job it waits on is cancelled, as by
// Cancel, and Do returns ctx's error; its other errors are Submit's (never
// ErrQueueFull) and fleet's.
func (m *Manager) Do(ctx context.Context, r Request, fleet Fleet) (Job, string, error) {
	return m.walk(ctx, r, fleet, true)
}

// queueFullRetry is how long Do sleeps before offering its job to a full
// queue again.
const queueFullRetry = 5 * time.Millisecond

// walk is the one place that says where a finished result may come from
// and in what order: (1) the memory cache, (2) an identical queued or
// running job, (3) the disk store, (4) the key's owner in the fleet, (5) a
// simulation here. Tiers 1 and 2 are map reads under m.mu. Tiers 3 and 4
// block on a disk or a peer, so they run with m.mu released, once each, and
// the walk then starts over from tier 1: whatever happened meanwhile (an
// identical submission enqueued, a result cached) is found before anything
// is enqueued twice. A slow tier answers hit or miss; a corrupt entry or a
// hung peer is a miss. A disk hit is promoted into memory. A peer's answer
// is handed on and adopted into neither local tier: its owner keeps it, and
// another binary's result stored under our key would make a version skew a
// wrong answer that outlives it (DESIGN.md §11).
//
// Without wait the walk returns where the job is enqueued or the queue is
// full, and skips the fleet, which would block: that is Submit.
func (m *Manager) walk(ctx context.Context, r Request, fleet Fleet, wait bool) (Job, string, error) {
	canon, key, exp, err := Canonicalize(r)
	if err != nil {
		return Job{}, "", err
	}
	source := RouteLocal
	askDisk, askFleet := m.cfg.Store != nil, fleet != nil && wait
	var onDisk *noc.Result
	for ctx.Err() == nil {
		now := time.Now()
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return Job{}, source, ErrShuttingDown
		}
		if res, ok := m.cache[key]; ok { // tier 1
			j := m.hitLocked(canon, key, exp, res, false, now)
			m.mu.Unlock()
			return j.snapshot(), source, nil
		}
		if j, ok := m.inflight[key]; ok { // tier 2
			m.mu.Unlock()
			m.ins.submissions.Inc()
			m.ins.coalesced.Inc()
			m.ins.instant("cache-lookup", j, "coalesced", now)
			s, err := j.snapshot(), error(nil)
			if wait {
				s, err = m.await(ctx, j)
			}
			s.Dedup = true
			return s, source, err
		}
		switch {
		case onDisk != nil: // tier 3 hit, on the pass before
			j := m.hitLocked(canon, key, exp, onDisk, true, now)
			m.mu.Unlock()
			return j.snapshot(), source, nil
		case askDisk: // tier 3
			m.mu.Unlock()
			askDisk = false
			if onDisk = m.storeLookup(key); onDisk == nil {
				m.ins.storeMisses.Inc()
			}
		case askFleet: // tier 4
			m.mu.Unlock()
			askFleet = false
			var res noc.Result
			if res, source, err = fleet.Dispatch(ctx, key, canon); err != nil {
				return Job{}, source, err
			}
			if source == RouteRemote {
				return Job{Key: key, State: StateDone, Request: canon, Result: &res}, source, nil
			}
		case len(m.queue) == cap(m.queue): // tier 5 has no room
			m.mu.Unlock()
			m.ins.rejected.Inc()
			if !wait {
				return Job{}, source, ErrQueueFull
			}
			select {
			case <-ctx.Done():
			case <-time.After(queueFullRetry):
			}
		default: // tier 5
			runCtx, cancel := context.WithCancel(context.Background())
			j := m.newJobLocked(canon, key, exp, &run{exp: exp, ctx: runCtx, cancel: cancel, enqueued: now})
			m.queue <- j // never blocks: every send is under m.mu, and there was room
			m.inflight[key] = j
			m.mu.Unlock()
			m.ins.submissions.Inc()
			m.ins.cacheMisses.Inc()
			m.ins.queued.Add(1)
			m.ins.instant("cache-lookup", j, "miss", now)
			if !wait {
				return j.snapshot(), source, nil
			}
			s, err := m.await(ctx, j)
			return s, source, err
		}
	}
	return Job{}, source, ctx.Err()
}

// hitLocked registers a job that is done on arrival, answered from the
// memory cache or (storeHit) from the disk store, whose result it promotes
// into memory; m.mu must be held. The record points at res and has no run.
func (m *Manager) hitLocked(req Request, key string, exp noc.Experiment, res *noc.Result, storeHit bool, now time.Time) *job {
	j := m.newJobLocked(req, key, exp, nil)
	j.State, j.CacheHit, j.StoreHit = StateDone, true, storeHit
	j.CyclesDone = j.CyclesTotal
	j.Result = res
	m.ins.submissions.Inc()
	m.ins.cacheHits.Inc()
	span := "cache-hit"
	if storeHit {
		m.addCacheLocked(key, res)
		m.ins.storeHits.Inc()
		span = "store-hit"
	}
	m.ins.instant(span, j, "hit", now)
	return j
}

// await blocks until j is terminal. A context that ends first cancels the
// job, every submitter attached to it included (singleflight semantics).
func (m *Manager) await(ctx context.Context, j *job) (Job, error) {
	select {
	case <-j.done:
		return j.snapshot(), nil
	case <-ctx.Done():
		return m.cancelJob(j), ctx.Err()
	}
}

// cancelJob asks j to stop and returns its (possibly still running) snapshot.
func (m *Manager) cancelJob(j *job) Job {
	j.stop()
	m.ins.instant("cancel", j, "requested", time.Now())
	return j.snapshot()
}

// newJobLocked allocates and registers a job record with run r, or a hit's
// record when r is nil; m.mu must be held.
func (m *Manager) newJobLocked(req Request, key string, exp noc.Experiment, r *run) *job {
	m.seq++
	warmup, measure := exp.Protocol()
	j := &job{
		Job: Job{ID: fmt.Sprintf("j%d", m.seq), Key: key, State: StateQueued,
			CyclesTotal: warmup + measure, Request: req},
		done: hitDone,
		run:  r,
	}
	if r != nil {
		j.done = make(chan struct{})
	}
	m.jobs[j.ID] = j
	m.jobOrder = append(m.jobOrder, j.ID)
	m.evictJobsLocked()
	return j
}

// evictJobsLocked drops the oldest terminal job records over JobsCap.
func (m *Manager) evictJobsLocked() {
	for i := 0; len(m.jobs) > m.cfg.JobsCap && i < len(m.jobOrder); {
		id := m.jobOrder[i]
		j, ok := m.jobs[id]
		if ok && !j.snapshotStateTerminal() {
			i++
			continue
		}
		delete(m.jobs, id)
		m.jobOrder = append(m.jobOrder[:i], m.jobOrder[i+1:]...)
	}
}

func (j *job) snapshotStateTerminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.State.Terminal()
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

func (m *Manager) runJob(j *job) {
	started := time.Now()
	j.mu.Lock()
	j.State = StateRunning
	r := j.run
	r.started = started
	j.mu.Unlock()
	m.ins.queued.Add(-1)
	m.ins.queueWait.Observe(started.Sub(r.enqueued).Seconds())
	m.ins.span("queue-wait", j, "dequeued", r.enqueued, started)
	m.ins.running.Add(1)
	res, err := m.simulate(j, r)
	finished := time.Now()
	m.ins.running.Add(-1)

	m.mu.Lock()
	delete(m.inflight, j.Key)
	if err == nil {
		m.addCacheLocked(j.Key, &res)
	}
	m.mu.Unlock()
	if err == nil && m.cfg.Store != nil {
		// Write-through to the disk tier. A failed write degrades durability,
		// not correctness — the result is already in memory — so it is
		// counted, never fatal.
		if payload, merr := json.Marshal(res); merr == nil {
			if perr := m.cfg.Store.Put(j.Key, payload); perr != nil {
				m.ins.storePutErrs.Inc()
			}
		} else {
			m.ins.storePutErrs.Inc()
		}
	}

	j.mu.Lock()
	switch {
	case err == nil:
		j.State = StateDone
		j.CyclesDone = j.CyclesTotal
		j.Result = &res
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.State = StateCanceled
		j.Error = err.Error()
	default:
		j.State = StateFailed
		j.Error = err.Error()
	}
	j.QueueWaitMS, j.RunMS, j.CyclesPerSec = r.timing(finished, j.CyclesDone)
	j.run = nil
	outcome := string(j.State)
	cyclesDone := j.CyclesDone
	j.mu.Unlock()
	r.cancel()
	m.ins.outcomes.With(outcome).Inc()
	m.ins.cycles.Add(uint64(cyclesDone))
	m.ins.runTime.With(schemeLabel(j.Request)).Observe(finished.Sub(started).Seconds())
	m.ins.span("run", j, outcome, started, finished)
	close(j.done)
}

// chunk is the cycle count between a running job's cancellation checks and
// progress updates: a cancelled job stops within chunk cycles.
const chunk = 1000

// simulate runs one job to completion or cancellation. Any panic out of the
// simulator becomes a failed job, not a dead worker.
func (m *Manager) simulate(j *job, r *run) (res noc.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("simulation panic: %v", p)
		}
	}()
	exp := r.exp
	w, err := j.Request.Workload.Workload(exp)
	if err != nil {
		return noc.Result{}, err
	}
	buildStart := time.Now()
	n := exp.Build()
	built := time.Now()
	m.ins.buildTime.Observe(built.Sub(buildStart).Seconds())
	m.ins.span("build", j, "built", buildStart, built)
	out, err := exp.RunWindows(r.ctx, n, w, nil, chunk, func(n *noc.Network) {
		j.mu.Lock()
		j.CyclesDone = int(n.Now())
		j.mu.Unlock()
	})
	if err != nil {
		return noc.Result{}, err
	}
	return out[0], nil
}

// storeLookup fetches and decodes a result from the disk store, nil on a
// miss; m.mu must not be held, since the read can block as long as the disk
// does. A checksum-valid entry whose payload no longer decodes (format
// drift across versions) is a miss.
func (m *Manager) storeLookup(key string) *noc.Result {
	payload, ok := m.cfg.Store.Get(key)
	if !ok {
		return nil
	}
	var res noc.Result
	if err := json.Unmarshal(payload, &res); err != nil {
		return nil
	}
	return &res
}

// addCacheLocked inserts a result, evicting the oldest entries over
// CacheCap; m.mu must be held.
func (m *Manager) addCacheLocked(key string, res *noc.Result) {
	if _, ok := m.cache[key]; !ok {
		m.cacheOrder = append(m.cacheOrder, key)
	}
	m.cache[key] = res
	for len(m.cache) > m.cfg.CacheCap {
		old := m.cacheOrder[0]
		m.cacheOrder = m.cacheOrder[1:]
		delete(m.cache, old)
	}
}

// Get returns a snapshot of the job.
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Job{}, false
	}
	return j.snapshot(), true
}

// Jobs lists snapshots of all retained jobs, oldest first.
func (m *Manager) Jobs() []Job {
	m.mu.Lock()
	order := append([]string(nil), m.jobOrder...)
	js := make([]*job, 0, len(order))
	for _, id := range order {
		if j, ok := m.jobs[id]; ok {
			js = append(js, j)
		}
	}
	m.mu.Unlock()
	out := make([]Job, len(js))
	for i, j := range js {
		out[i] = j.snapshot()
	}
	return out
}

// Done exposes the job's completion channel (closed at terminal state).
func (m *Manager) Done(id string) (<-chan struct{}, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, false
	}
	return j.done, true
}

// Wait blocks until the job reaches a terminal state or the context ends;
// either way it returns the latest snapshot.
func (m *Manager) Wait(ctx context.Context, id string) (Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Job{}, ErrUnknownJob
	}
	select {
	case <-j.done:
		return j.snapshot(), nil
	case <-ctx.Done():
		return j.snapshot(), ctx.Err()
	}
}

// Cancel requests cancellation of a queued or running job. The job reaches
// StateCanceled within one chunk; cancelling a terminal job is a no-op.
// With singleflight dedup a cancel also cancels every submitter attached to
// the job — they share one underlying run by design.
func (m *Manager) Cancel(id string) (Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Job{}, ErrUnknownJob
	}
	return m.cancelJob(j), nil
}

// Shutdown stops accepting submissions and drains: queued and running jobs
// keep executing until done or until ctx expires, at which point every
// in-flight job is cancelled and Shutdown waits (briefly — one chunk) for
// the workers to exit. It returns nil on a clean drain, ctx.Err() when the
// deadline forced cancellation.
func (m *Manager) Shutdown(ctx context.Context) error {
	start := time.Now()
	m.mu.Lock()
	alreadyClosed := m.closed
	if !alreadyClosed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		m.ins.spans.Record(telemetry.Span{
			Name: "drain", Outcome: "clean", Start: start, End: time.Now(),
		})
		return nil
	case <-ctx.Done():
		m.mu.Lock()
		for _, j := range m.inflight {
			j.stop()
		}
		m.mu.Unlock()
		<-done
		m.ins.spans.Record(telemetry.Span{
			Name: "drain", Outcome: "deadline", Start: start, End: time.Now(),
		})
		return ctx.Err()
	}
}

// Stats reads the service counters and live gauges into one map, by the
// short names the tests use; /metrics is the published surface.
func (m *Manager) Stats() map[string]int64 {
	count := func(c *telemetry.Counter) int64 {
		if c == nil { // store counters exist only with a store
			return 0
		}
		return int64(c.Value())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ins := m.ins
	return map[string]int64{
		"submitted":    count(ins.submissions),
		"enqueued":     count(ins.cacheMisses),
		"cache_hits":   count(ins.cacheHits),
		"store_hits":   count(ins.storeHits),
		"store_misses": count(ins.storeMisses),
		"dedup_hits":   count(ins.coalesced),
		"rejected":     count(ins.rejected),
		"completed":    count(ins.outcomes.With(string(StateDone))),
		"failed":       count(ins.outcomes.With(string(StateFailed))),
		"canceled":     count(ins.outcomes.With(string(StateCanceled))),
		"running":      int64(ins.running.Value()),
		"queue_len":    int64(len(m.queue)),
		"cache_size":   int64(len(m.cache)),
		"inflight":     int64(len(m.inflight)),
		"jobs":         int64(len(m.jobs)),
	}
}
