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
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// answer is what a key resolves to: its key, its canonical request, its
// cycle count and, once a run or the store produced it, its result. The
// memory cache and every record of the key point at the one answer; nothing
// is copied per record. A store hit or a peer's reply makes its own. The
// result is written once, by the worker that produced it, before the answer
// enters the cache or its record turns terminal, and never after.
type answer struct {
	key    string
	req    Request
	res    *noc.Result
	cycles int // warmup + measure
}

// Record is one job: a pointer to its key's answer and the facts that are
// its own. A job that is queued or running also has a run; a hit is
// terminal on arrival and never has one. While the run is there it guards
// the record's state, cycle count and, at the end, the frozen timings and
// error under its lock; once it is gone the record never changes. Do hands
// out the terminal record itself, and a sweep point keeps it: Job builds
// the wire view on every read.
type Record struct {
	ans  *answer
	live atomic.Pointer[run]
	seq  int // the ID is "j" and seq; 0 for a record the manager does not retain

	waited, ran        time.Duration // the queue wait and the run, frozen at the end; zero for hits
	err                string
	cyclesDone         int32 // a job is at most MaxCycles long
	state              phase
	cacheHit, storeHit bool
}

// phase is a record's State in a byte.
type phase uint8

const (
	phaseQueued phase = iota
	phaseRunning
	phaseDone
	phaseFailed
	phaseCanceled
)

var phaseStates = [...]State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}

// run is what a job needs only while it is queued or running: the lock over
// its record, its done channel, the experiment, the context that cancels
// it, and its wall-clock marks. The terminal transition freezes the timings
// into the record and drops it.
type run struct {
	mu       sync.Mutex
	done     chan struct{} // closed when the job reaches a terminal state
	exp      noc.Experiment
	ctx      context.Context
	cancel   context.CancelFunc
	enqueued time.Time
	started  time.Time // zero while queued
}

// ended is the done channel of every record without a run: it is terminal.
var ended = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// timing fills s's wall-clock figures from a queue wait and a run of
// s.CyclesDone cycles.
func timing(s *Job, waited, ran time.Duration) {
	s.QueueWaitMS = float64(waited) / float64(time.Millisecond)
	s.RunMS = float64(ran) / float64(time.Millisecond)
	if secs := ran.Seconds(); secs > 0 && s.CyclesDone > 0 {
		s.CyclesPerSec = float64(s.CyclesDone) / secs
	}
}

// Unanswered is the record of work no job answered: the key and request it
// asked for, how it ended and why. The manager does not retain it.
func Unanswered(key string, req Request, state State, msg string) *Record {
	rec := &Record{ans: &answer{key: key, req: req}, err: msg}
	for p, s := range phaseStates {
		if s == state {
			rec.state = phase(p)
		}
	}
	return rec
}

// Job is the wire view of the record, built on read. A queued or running
// job's timings run up to now.
func (j *Record) Job() Job {
	if r := j.live.Load(); r != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		s := j.wire()
		if !s.State.Terminal() && !r.started.IsZero() {
			timing(&s, r.started.Sub(r.enqueued), time.Since(r.started))
			if s.CyclesPerSec > 0 {
				s.ETASeconds = float64(s.CyclesTotal-s.CyclesDone) / s.CyclesPerSec
			}
		}
		return s
	}
	return j.wire()
}

// wire fills the wire Job from the record's fields; the run's lock must be
// held while there is a run.
func (j *Record) wire() Job {
	s := Job{ID: j.id(), Key: j.ans.key, State: phaseStates[j.state], CacheHit: j.cacheHit, StoreHit: j.storeHit,
		CyclesDone: int(j.cyclesDone), CyclesTotal: j.ans.cycles, Request: j.ans.req, Error: j.err}
	timing(&s, j.waited, j.ran)
	if j.state == phaseDone {
		s.Result = j.ans.res
	}
	return s
}

// id is the record's job ID, printed from its sequence number.
func (j *Record) id() string {
	if j.seq == 0 {
		return ""
	}
	return string(strconv.AppendInt(append(make([]byte, 0, 24), 'j'), int64(j.seq), 10))
}

// parseID is id's inverse: the sequence number of a job ID, false for any
// string id does not print.
func parseID(id string) (int, bool) {
	digits, ok := strings.CutPrefix(id, "j")
	if !ok || digits == "" || digits[0] < '1' || digits[0] > '9' { // no sign, no leading zero
		return 0, false
	}
	seq, err := strconv.Atoi(digits)
	return seq, err == nil
}

// done is the channel closed once the job is terminal.
func (j *Record) done() <-chan struct{} {
	if r := j.live.Load(); r != nil {
		return r.done
	}
	return ended
}

// stop cancels j's run, if it still has one: stopping a terminal job is a
// no-op.
func (j *Record) stop() {
	if r := j.live.Load(); r != nil {
		r.cancel()
	}
}

// Manager owns the queue, the workers, the cache and the job records.
type Manager struct {
	cfg   Config
	queue chan *Record
	wg    sync.WaitGroup
	ins   *instruments

	mu         sync.Mutex
	closed     bool
	seq        int
	jobs       []*Record          // retained records, by ascending seq
	inflight   map[string]*Record // by key: queued or running, singleflight
	cache      map[string]*answer
	cacheOrder []string
}

// New starts a manager and its workers.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:      cfg,
		queue:    make(chan *Record, cfg.QueueCap),
		inflight: make(map[string]*Record),
		cache:    make(map[string]*answer),
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
	j, dedup, _, err := m.walk(context.Background(), r, nil, false)
	if err != nil {
		return Job{}, err
	}
	s := j.Job()
	s.Dedup = dedup
	return s, nil
}

// Do runs the whole walk to a terminal job: every local tier, then fleet
// (nil: there is none), then a simulation here, waiting out a full queue
// and the run itself. It returns the terminal record, which no longer
// changes (shared with every caller that joined it, never marked Dedup; a
// peer's answer gets one of its own), and where the result came from (a
// Route constant). When ctx ends first the job it waits on is cancelled, as
// by Cancel, and Do returns ctx's error; its other errors are Submit's
// (never ErrQueueFull) and fleet's.
func (m *Manager) Do(ctx context.Context, r Request, fleet Fleet) (*Record, string, error) {
	j, _, source, err := m.walk(ctx, r, fleet, true)
	if err != nil {
		return nil, source, err
	}
	return j, source, nil
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
// full, and skips the fleet, which would block: that is Submit. Dedup says
// the record was joined in flight (tier 2). A walk that ends with a record
// is timed once, under the tier that answered.
func (m *Manager) walk(ctx context.Context, r Request, fleet Fleet, wait bool) (j *Record, dedup bool, source string, err error) {
	start := time.Now()
	canon, key, exp, err := Canonicalize(r)
	if err != nil {
		return nil, false, "", err
	}
	warmup, measure := exp.Protocol()
	cycles := warmup + measure
	source = RouteLocal
	askDisk, askFleet := m.cfg.Store != nil, fleet != nil && wait
	var onDisk *noc.Result
	for ctx.Err() == nil {
		now := time.Now()
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil, false, source, ErrShuttingDown
		}
		if a, ok := m.cache[key]; ok { // tier 1
			j := m.hitLocked(a, false, now)
			m.mu.Unlock()
			m.ins.walked(tierMemory, start)
			return j, false, source, nil
		}
		if j, ok := m.inflight[key]; ok { // tier 2
			m.mu.Unlock()
			m.ins.submissions.Inc()
			m.ins.coalesced.Inc()
			m.ins.instant("cache-lookup", j, "coalesced", now)
			if wait {
				err = m.await(ctx, j)
			}
			if err == nil {
				m.ins.walked(tierInflight, start)
			}
			return j, true, source, err
		}
		switch {
		case onDisk != nil: // tier 3 hit, on the pass before
			j := m.hitLocked(&answer{key: key, req: canon, res: onDisk, cycles: cycles}, true, now)
			m.mu.Unlock()
			m.ins.walked(tierStore, start)
			return j, false, source, nil
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
				return nil, false, source, err
			}
			if source == RouteRemote {
				m.ins.walked(tierFleet, start)
				a := &answer{key: key, req: canon, res: &res, cycles: cycles}
				return &Record{ans: a, state: phaseDone, cyclesDone: int32(cycles)}, false, source, nil
			}
		case len(m.queue) == cap(m.queue): // tier 5 has no room
			m.mu.Unlock()
			m.ins.rejected.Inc()
			if !wait {
				return nil, false, source, ErrQueueFull
			}
			select {
			case <-ctx.Done():
			case <-time.After(queueFullRetry):
			}
		default: // tier 5
			j := m.enqueueLocked(&answer{key: key, req: canon, cycles: cycles}, exp, now)
			m.mu.Unlock()
			m.ins.submissions.Inc()
			m.ins.cacheMisses.Inc()
			m.ins.queued.Add(1)
			m.ins.instant("cache-lookup", j, "miss", now)
			if wait {
				err = m.await(ctx, j)
			}
			if err == nil {
				m.ins.walked(tierSimulate, start)
			}
			return j, false, source, err
		}
	}
	return nil, false, source, ctx.Err()
}

// hitLocked registers a record that is done on arrival, answered by a from
// the memory cache or (storeHit) from the disk store, whose answer it
// promotes into memory; m.mu must be held.
func (m *Manager) hitLocked(a *answer, storeHit bool, now time.Time) *Record {
	j := &Record{ans: a, state: phaseDone, cacheHit: true, storeHit: storeHit, cyclesDone: int32(a.cycles)}
	m.addJobLocked(j)
	m.ins.submissions.Inc()
	m.ins.cacheHits.Inc()
	span := "cache-hit"
	if storeHit {
		m.addCacheLocked(a)
		m.ins.storeHits.Inc()
		span = "store-hit"
	}
	m.ins.instant(span, j, "hit", now)
	return j
}

// enqueueLocked registers a new job that will answer a and hands it to the
// queue, which must have room; m.mu must be held.
func (m *Manager) enqueueLocked(a *answer, exp noc.Experiment, now time.Time) *Record {
	ctx, cancel := context.WithCancel(context.Background())
	j := &Record{ans: a}
	j.live.Store(&run{done: make(chan struct{}), exp: exp, ctx: ctx, cancel: cancel, enqueued: now})
	m.addJobLocked(j)
	m.queue <- j // never blocks: every send is under m.mu, and there was room
	m.inflight[a.key] = j
	return j
}

// await blocks until j is terminal. A context that ends first cancels the
// job, every submitter attached to it included (singleflight semantics).
func (m *Manager) await(ctx context.Context, j *Record) error {
	select {
	case <-j.done():
		return nil
	case <-ctx.Done():
		m.cancelJob(j)
		return ctx.Err()
	}
}

// cancelJob asks j to stop and returns its (possibly still running) snapshot.
func (m *Manager) cancelJob(j *Record) Job {
	j.stop()
	m.ins.instant("cancel", j, "requested", time.Now())
	return j.Job()
}

// addJobLocked gives j the next sequence number and retains it, evicting the
// oldest terminal records over JobsCap; m.mu must be held.
func (m *Manager) addJobLocked(j *Record) {
	m.seq++
	j.seq = m.seq
	m.jobs = append(m.jobs, j)
	for i := 0; len(m.jobs) > m.cfg.JobsCap && i < len(m.jobs); {
		switch {
		case m.jobs[i].live.Load() != nil:
			i++
		case i == 0:
			m.jobs[0] = nil
			m.jobs = m.jobs[1:]
		default:
			m.jobs = slices.Delete(m.jobs, i, i+1)
		}
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

func (m *Manager) runJob(j *Record) {
	r := j.live.Load()
	started := time.Now()
	r.mu.Lock()
	j.state = phaseRunning
	r.started = started
	r.mu.Unlock()
	m.ins.queued.Add(-1)
	m.ins.queueWait.Observe(started.Sub(r.enqueued).Seconds())
	m.ins.span("queue-wait", j, "dequeued", r.enqueued, started)
	m.ins.running.Add(1)
	res, err := m.simulate(j, r)
	finished := time.Now()
	m.ins.running.Add(-1)

	key := j.ans.key
	if err == nil {
		j.ans.res = &res // before anyone can read it: the record is live and the answer not cached
	}
	m.mu.Lock()
	delete(m.inflight, key)
	if err == nil {
		m.addCacheLocked(j.ans)
	}
	m.mu.Unlock()
	if err == nil && m.cfg.Store != nil {
		// Write-through to the disk tier. A failed write degrades durability,
		// not correctness — the result is already in memory — so it is
		// counted, never fatal.
		if payload, merr := json.Marshal(res); merr == nil {
			if perr := m.cfg.Store.Put(key, payload); perr != nil {
				m.ins.storePutErrs.Inc()
			}
		} else {
			m.ins.storePutErrs.Inc()
		}
	}

	r.mu.Lock()
	switch {
	case err == nil:
		j.state = phaseDone
		j.cyclesDone = int32(j.ans.cycles)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = phaseCanceled
		j.err = err.Error()
	default:
		j.state = phaseFailed
		j.err = err.Error()
	}
	j.waited, j.ran = started.Sub(r.enqueued), finished.Sub(started)
	outcome := string(phaseStates[j.state])
	cyclesDone := uint64(j.cyclesDone)
	r.mu.Unlock()
	r.cancel()
	m.ins.outcomes.With(outcome).Inc()
	m.ins.cycles.Add(cyclesDone)
	m.ins.runTime.With(schemeLabel(j.ans.req)).Observe(finished.Sub(started).Seconds())
	m.ins.span("run", j, outcome, started, finished)
	j.live.Store(nil) // from here on the record is read without a lock
	close(r.done)
}

// chunk is the cycle count between a running job's cancellation checks and
// progress updates: a cancelled job stops within chunk cycles.
const chunk = 1000

// simulate runs one job to completion or cancellation. Any panic out of the
// simulator becomes a failed job, not a dead worker.
func (m *Manager) simulate(j *Record, r *run) (res noc.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("simulation panic: %v", p)
		}
	}()
	exp := r.exp
	w, err := j.ans.req.Workload.Workload(exp)
	if err != nil {
		return noc.Result{}, err
	}
	buildStart := time.Now()
	n := exp.Build()
	built := time.Now()
	m.ins.buildTime.Observe(built.Sub(buildStart).Seconds())
	m.ins.span("build", j, "built", buildStart, built)
	out, err := exp.RunWindows(r.ctx, n, w, nil, chunk, func(n *noc.Network) {
		r.mu.Lock()
		j.cyclesDone = int32(n.Now())
		r.mu.Unlock()
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

// addCacheLocked inserts an answer, evicting the oldest entries over
// CacheCap; m.mu must be held.
func (m *Manager) addCacheLocked(a *answer) {
	if _, ok := m.cache[a.key]; !ok {
		m.cacheOrder = append(m.cacheOrder, a.key)
	}
	m.cache[a.key] = a
	for len(m.cache) > m.cfg.CacheCap {
		old := m.cacheOrder[0]
		m.cacheOrder = m.cacheOrder[1:]
		delete(m.cache, old)
	}
}

// record returns job id's record, nil when none is retained.
func (m *Manager) record(id string) *Record {
	seq, ok := parseID(id)
	if !ok {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	i, found := slices.BinarySearchFunc(m.jobs, seq, func(j *Record, seq int) int { return cmp.Compare(j.seq, seq) })
	if !found {
		return nil
	}
	return m.jobs[i]
}

// Get returns a snapshot of the job.
func (m *Manager) Get(id string) (Job, bool) {
	j := m.record(id)
	if j == nil {
		return Job{}, false
	}
	return j.Job(), true
}

// Jobs lists snapshots of all retained jobs, oldest first.
func (m *Manager) Jobs() []Job {
	m.mu.Lock()
	js := slices.Clone(m.jobs)
	m.mu.Unlock()
	out := make([]Job, len(js))
	for i, j := range js {
		out[i] = j.Job()
	}
	return out
}

// Done exposes the job's completion channel (closed at terminal state).
func (m *Manager) Done(id string) (<-chan struct{}, bool) {
	j := m.record(id)
	if j == nil {
		return nil, false
	}
	return j.done(), true
}

// Wait blocks until the job reaches a terminal state or the context ends;
// either way it returns the latest snapshot.
func (m *Manager) Wait(ctx context.Context, id string) (Job, error) {
	j := m.record(id)
	if j == nil {
		return Job{}, ErrUnknownJob
	}
	select {
	case <-j.done():
		return j.Job(), nil
	case <-ctx.Done():
		return j.Job(), ctx.Err()
	}
}

// Cancel requests cancellation of a queued or running job. The job reaches
// StateCanceled within one chunk; cancelling a terminal job is a no-op.
// With singleflight dedup a cancel also cancels every submitter attached to
// the job — they share one underlying run by design.
func (m *Manager) Cancel(id string) (Job, error) {
	j := m.record(id)
	if j == nil {
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
