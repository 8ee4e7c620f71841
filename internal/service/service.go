// Package service is the simulation service behind the nocd daemon: a job
// manager that turns the one-shot experiment API into servable work.
//
// Shape of the subsystem:
//
//   - Submissions are canonicalized (spec.go) and content-addressed by the
//     SHA-256 of their canonical encoding. A key that was already computed
//     is answered from the result cache without simulating; a key that is
//     currently queued or running joins the in-flight job (singleflight)
//     instead of enqueueing a duplicate.
//   - New work enters a bounded FIFO queue; a full queue rejects the
//     submission (backpressure) rather than buffering without limit.
//   - A fixed pool of workers drains the queue. Each worker owns one
//     noc.Pool that it threads through its jobs in sequence — the same
//     free-list reuse pattern as the parallel sweep executor — so steady
//     state stays allocation-free across jobs. Pools never cross workers.
//   - Every job carries a context; cancelling it stops the simulation at
//     the next chunk boundary (noc.Experiment.RunOnContext). Shutdown
//     drains the queue gracefully and escalates to cancelling in-flight
//     jobs when the drain deadline passes.
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
	// Chunk is the cycle count between cancellation checks and progress
	// updates (default 1000).
	Chunk int
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
	if c.Chunk <= 0 {
		c.Chunk = 1000
	}
	if c.SpanCap <= 0 {
		c.SpanCap = 4096
	}
	return c
}

// State is a job's lifecycle phase.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is an immutable status snapshot of one submission.
type Job struct {
	ID    string `json:"id"`
	Key   string `json:"key"`
	State State  `json:"state"`
	// CacheHit marks a submission answered from the result cache without
	// simulating.
	CacheHit bool `json:"cacheHit"`
	// StoreHit marks a cache hit that was served from the persistent disk
	// store rather than process memory — i.e. the result outlived a restart
	// or was written by another process sharing the store directory.
	StoreHit bool `json:"storeHit,omitempty"`
	// Dedup marks a submission that joined an identical in-flight job; the
	// ID is the original job's.
	Dedup       bool `json:"dedup"`
	CyclesDone  int  `json:"cyclesDone"`
	CyclesTotal int  `json:"cyclesTotal"`
	// QueueWaitMS is the wall time the job spent waiting for a worker, in
	// milliseconds; zero for cache hits and while still queued.
	QueueWaitMS float64 `json:"queueWaitMs"`
	// RunMS is the wall time a worker spent simulating, in milliseconds:
	// elapsed-so-far while running, final once terminal, zero for cache hits.
	RunMS float64 `json:"runMs"`
	// CyclesPerSec is the simulation rate over the run so far; present while
	// running and on terminal snapshots of jobs that actually simulated.
	CyclesPerSec float64 `json:"cyclesPerSec,omitempty"`
	// ETASeconds estimates the remaining run time from the current rate;
	// present only while running.
	ETASeconds float64     `json:"etaSeconds,omitempty"`
	Request    Request     `json:"request"`
	Result     *noc.Result `json:"result,omitempty"`
	Error      string      `json:"error,omitempty"`
}

// Submission/lifecycle errors the transport maps to HTTP statuses.
var (
	ErrQueueFull    = errors.New("service: job queue full")
	ErrShuttingDown = errors.New("service: shutting down")
	ErrUnknownJob   = errors.New("service: unknown job")
)

// job is the mutable record behind Job snapshots.
type job struct {
	id     string
	key    string
	scheme string // bounded label value for per-scheme metrics
	req    Request
	exp    noc.Experiment
	total  int
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed when the job reaches a terminal state

	mu         sync.Mutex
	state      State
	cacheHit   bool
	storeHit   bool
	cyclesDone int
	result     *noc.Result
	err        string

	// Wall-clock lifecycle marks; zero until the phase is reached.
	enqueuedAt time.Time
	startedAt  time.Time
	finishedAt time.Time
}

func (j *job) snapshot() Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Job{
		ID:          j.id,
		Key:         j.key,
		State:       j.state,
		CacheHit:    j.cacheHit,
		StoreHit:    j.storeHit,
		CyclesDone:  j.cyclesDone,
		CyclesTotal: j.total,
		Request:     j.req,
		Error:       j.err,
	}
	if j.result != nil {
		r := *j.result
		s.Result = &r
	}
	if !j.startedAt.IsZero() {
		s.QueueWaitMS = float64(j.startedAt.Sub(j.enqueuedAt)) / float64(time.Millisecond)
		runFor := time.Since(j.startedAt)
		if !j.finishedAt.IsZero() {
			runFor = j.finishedAt.Sub(j.startedAt)
		}
		s.RunMS = float64(runFor) / float64(time.Millisecond)
		if secs := runFor.Seconds(); secs > 0 && j.cyclesDone > 0 {
			s.CyclesPerSec = float64(j.cyclesDone) / secs
			if j.state == StateRunning {
				s.ETASeconds = float64(j.total-j.cyclesDone) / s.CyclesPerSec
			}
		}
	}
	return s
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
	cache      map[string]noc.Result
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
		cache:    make(map[string]noc.Result),
	}
	m.ins = newInstruments(m, cfg.SpanCap)
	for w := 0; w < cfg.Workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit accepts a request, answering from the cache or an identical
// in-flight job when possible, enqueueing a new job otherwise. Errors:
// ErrBadRequest (wrapped, invalid spec), ErrQueueFull, ErrShuttingDown.
func (m *Manager) Submit(r Request) (Job, error) {
	canon, key, exp, err := Canonicalize(r)
	if err != nil {
		return Job{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Job{}, ErrShuttingDown
	}
	now := time.Now()
	if res, ok := m.cache[key]; ok {
		j := m.newJobLocked(canon, key, exp)
		j.state = StateDone
		j.cacheHit = true
		j.cyclesDone = j.total
		j.result = &res
		close(j.done)
		m.ins.submissions.Inc()
		m.ins.cacheHits.Inc()
		m.ins.instant("cache-hit", j, "hit", now)
		return j.snapshot(), nil
	}
	if j, ok := m.inflight[key]; ok {
		m.ins.submissions.Inc()
		m.ins.coalesced.Inc()
		m.ins.instant("cache-lookup", j, "coalesced", now)
		s := j.snapshot()
		s.Dedup = true
		return s, nil
	}
	// Memory and in-flight both missed; the disk store is the last cache
	// tier before simulating. A disk hit is promoted into the memory cache
	// so repeats stay off the disk.
	if m.cfg.Store != nil {
		if res, ok := m.storeLookupLocked(key); ok {
			m.addCacheLocked(key, res)
			j := m.newJobLocked(canon, key, exp)
			j.state = StateDone
			j.cacheHit = true
			j.storeHit = true
			j.cyclesDone = j.total
			j.result = &res
			close(j.done)
			m.ins.submissions.Inc()
			m.ins.cacheHits.Inc()
			m.ins.storeHits.Inc()
			m.ins.instant("store-hit", j, "hit", now)
			return j.snapshot(), nil
		}
		m.ins.storeMisses.Inc()
	}
	j := m.newJobLocked(canon, key, exp)
	j.enqueuedAt = now // pre-publication: workers only see j after the send
	select {
	case m.queue <- j:
	default:
		// Reject before publishing the record: a rejected submission
		// leaves no trace to poll.
		delete(m.jobs, j.id)
		m.jobOrder = m.jobOrder[:len(m.jobOrder)-1]
		j.cancel()
		m.ins.rejected.Inc()
		return Job{}, ErrQueueFull
	}
	m.inflight[key] = j
	m.ins.submissions.Inc()
	m.ins.cacheMisses.Inc()
	m.ins.queued.Add(1)
	m.ins.instant("cache-lookup", j, "miss", now)
	return j.snapshot(), nil
}

// newJobLocked allocates and registers a job record; m.mu must be held.
func (m *Manager) newJobLocked(req Request, key string, exp noc.Experiment) *job {
	m.seq++
	warmup, measure := exp.Protocol()
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:     fmt.Sprintf("j%d", m.seq),
		key:    key,
		scheme: schemeLabel(req),
		req:    req,
		exp:    exp,
		total:  warmup + measure,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		state:  StateQueued,
	}
	m.jobs[j.id] = j
	m.jobOrder = append(m.jobOrder, j.id)
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
	return j.state.Terminal()
}

func (m *Manager) worker() {
	defer m.wg.Done()
	// One pool per worker, threaded through its jobs in sequence (never
	// shared across goroutines) — free lists warmed by one job are reused
	// by the next.
	pool := noc.NewPool()
	for j := range m.queue {
		m.runJob(j, pool)
	}
}

func (m *Manager) runJob(j *job, pool *noc.Pool) {
	started := time.Now()
	j.mu.Lock()
	j.state = StateRunning
	j.startedAt = started
	j.mu.Unlock()
	m.ins.queued.Add(-1)
	m.ins.queueWait.Observe(started.Sub(j.enqueuedAt).Seconds())
	m.ins.span("queue-wait", j, "dequeued", j.enqueuedAt, started)
	m.ins.running.Add(1)
	res, err := m.simulate(j, pool)
	finished := time.Now()
	m.ins.running.Add(-1)

	m.mu.Lock()
	delete(m.inflight, j.key)
	if err == nil {
		m.addCacheLocked(j.key, res)
	}
	m.mu.Unlock()
	if err == nil && m.cfg.Store != nil {
		// Write-through to the disk tier. A failed write degrades durability,
		// not correctness — the result is already in memory — so it is
		// counted, never fatal.
		if payload, merr := json.Marshal(res); merr == nil {
			if perr := m.cfg.Store.Put(j.key, payload); perr != nil {
				m.ins.storePutErrs.Inc()
			}
		} else {
			m.ins.storePutErrs.Inc()
		}
	}

	j.mu.Lock()
	j.finishedAt = finished
	switch {
	case err == nil:
		j.state = StateDone
		j.cyclesDone = j.total
		j.result = &res
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = StateCanceled
		j.err = err.Error()
	default:
		j.state = StateFailed
		j.err = err.Error()
	}
	outcome := string(j.state)
	cyclesDone := j.cyclesDone
	j.mu.Unlock()
	m.ins.outcomes.With(outcome).Inc()
	m.ins.cycles.Add(uint64(cyclesDone))
	m.ins.runTime.With(j.scheme).Observe(finished.Sub(started).Seconds())
	m.ins.span("run", j, outcome, started, finished)
	close(j.done)
}

// simulate runs one job to completion or cancellation. Any panic out of the
// simulator becomes a failed job, not a dead worker.
func (m *Manager) simulate(j *job, pool *noc.Pool) (res noc.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("simulation panic: %v", p)
		}
	}()
	exp := j.exp
	exp.Pool = pool
	w, err := j.req.Workload.Workload(exp)
	if err != nil {
		return noc.Result{}, err
	}
	buildStart := time.Now()
	n := exp.Build()
	built := time.Now()
	m.ins.buildTime.Observe(built.Sub(buildStart).Seconds())
	m.ins.span("build", j, "built", buildStart, built)
	return exp.RunOnContext(j.ctx, n, w, m.cfg.Chunk, func(n *noc.Network) {
		j.mu.Lock()
		j.cyclesDone = int(n.Now())
		j.mu.Unlock()
	})
}

// storeLookupLocked fetches and decodes a result from the disk store; m.mu
// must be held. A checksum-valid entry whose payload no longer decodes
// (format drift across versions) is treated as a miss.
func (m *Manager) storeLookupLocked(key string) (noc.Result, bool) {
	payload, ok := m.cfg.Store.Get(key)
	if !ok {
		return noc.Result{}, false
	}
	var res noc.Result
	if err := json.Unmarshal(payload, &res); err != nil {
		return noc.Result{}, false
	}
	return res, true
}

// addCacheLocked inserts a result, evicting the oldest entries over
// CacheCap; m.mu must be held.
func (m *Manager) addCacheLocked(key string, res noc.Result) {
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
	j.cancel()
	m.ins.instant("cancel", j, "requested", time.Now())
	return j.snapshot(), nil
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
			j.cancel()
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
