package sweepapi

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pseudocircuit/internal/service"
	"pseudocircuit/internal/telemetry"
	"pseudocircuit/nocdclient"
)

// Config parameterizes a sweep Manager. Zero values select the defaults.
type Config struct {
	// MaxPoints bounds one sweep's grid expansion (default DefaultMaxPoints);
	// larger grids are rejected with a 400-mapped error, never truncated.
	MaxPoints int
	// Inflight bounds the grid points one sweep works on concurrently
	// (default 16). It should not exceed the service queue capacity; the
	// feeder backs off and retries on queue-full either way.
	Inflight int
	// SweepsCap bounds retained sweep records (default 128), oldest terminal
	// evicted first.
	SweepsCap int
	// Dispatcher, when non-nil, is the fleet tier every point's walk ends on
	// (service.Manager.Do) once this node's own tiers have missed; nil runs
	// everything locally.
	Dispatcher service.Fleet
}

func (c Config) withDefaults() Config {
	if c.MaxPoints <= 0 {
		c.MaxPoints = DefaultMaxPoints
	}
	if c.Inflight <= 0 {
		c.Inflight = 16
	}
	if c.SweepsCap <= 0 {
		c.SweepsCap = 128
	}
	return c
}

// Status and PointStatus are the wire schema's sweep snapshot and per-point
// NDJSON line, declared once in nocdclient.
type (
	Status      = nocdclient.SweepStatus
	PointStatus = nocdclient.SweepPoint
)

// ErrUnknownSweep is returned for sweep IDs that don't resolve.
var ErrUnknownSweep = errors.New("sweepapi: unknown sweep")

type sweep struct {
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	start  time.Time
	// plan is the grid in order, kept until every point has run; points
	// are how they ended. A point is owned by exactly one worker until it
	// is published (appended to completedOrder under mu), then immutable.
	plan   []PlanPoint
	points []point

	mu             sync.Mutex
	st             Status // all but Completed and ElapsedMS, which statusLocked fills in
	finish         time.Time
	completedOrder []int // publication order; index into points
}

// point is a finished grid point: the terminal job record that answered it
// (the service's own, or for a point no local job answered, an unanswered
// one) and the route it came by.
type point struct {
	rec    *service.Record
	source string
}

func (s *sweep) statusLocked() Status {
	elapsed := time.Since(s.start)
	if !s.finish.IsZero() {
		elapsed = s.finish.Sub(s.start)
	}
	st := s.st
	st.Completed = len(s.completedOrder)
	st.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	return st
}

func (s *sweep) status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked()
}

// Manager expands sweep requests and drives their grid points through the
// service (and, in cluster mode, across the fleet).
type Manager struct {
	svc *service.Manager
	cfg Config

	sweepsTotal  *telemetry.Counter
	pointsTotal  telemetry.CounterVec // label outcome: done|failed|canceled
	sweepsActive *telemetry.Gauge
	pointsActive *telemetry.Gauge

	mu     sync.Mutex
	closed bool
	seq    int
	sweeps map[string]*sweep
	order  []string
	wg     sync.WaitGroup
}

// New returns a sweep manager over svc, registering its metrics on the
// service's registry and its lifecycle spans on the service's span log.
func New(svc *service.Manager, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	reg := svc.Telemetry()
	return &Manager{
		svc:    svc,
		cfg:    cfg,
		sweeps: map[string]*sweep{},
		sweepsTotal: reg.Counter("nocd_sweeps_total",
			"sweep submissions accepted and expanded"),
		pointsTotal: reg.CounterVec("nocd_sweep_points_total",
			"sweep grid points reaching a terminal state, by outcome", "outcome"),
		sweepsActive: reg.Gauge("nocd_sweeps_active", "sweeps currently running"),
		pointsActive: reg.Gauge("nocd_sweep_points_active",
			"grid points of running sweeps not yet terminal"),
	}
}

// Submit parses, expands and starts a sweep, returning its initial status.
// Errors wrap service.ErrBadRequest (invalid or over-limit grid) or are
// service.ErrShuttingDown.
func (m *Manager) Submit(data []byte) (Status, error) {
	plan, err := Parse(data, m.cfg.MaxPoints)
	if err != nil {
		return Status{}, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Status{}, service.ErrShuttingDown
	}
	m.seq++
	ctx, cancel := context.WithCancel(context.Background())
	s := &sweep{
		ctx: ctx, cancel: cancel, done: make(chan struct{}), start: time.Now(),
		plan: plan.Points, points: make([]point, len(plan.Points)),
		st: Status{ID: fmt.Sprintf("s%d", m.seq), State: service.StateRunning, Points: len(plan.Points)},
	}
	m.sweeps[s.st.ID] = s
	m.order = append(m.order, s.st.ID)
	m.evictSweepsLocked()
	m.wg.Add(1)
	m.mu.Unlock()

	m.sweepsTotal.Inc()
	m.sweepsActive.Add(1)
	m.pointsActive.Add(float64(len(s.points)))
	go m.run(s)
	return s.status(), nil
}

// evictSweepsLocked drops the oldest terminal sweep records over SweepsCap.
func (m *Manager) evictSweepsLocked() {
	for i := 0; len(m.sweeps) > m.cfg.SweepsCap && i < len(m.order); {
		id := m.order[i]
		select {
		case <-m.sweeps[id].done:
			delete(m.sweeps, id)
			m.order = append(m.order[:i], m.order[i+1:]...)
		default:
			i++
		}
	}
}

// run drives one sweep: a bounded worker pool pulls point indices in grid
// order, so at most Inflight points occupy the service queue at once and a
// fleet peer sees a steady trickle, not a thundering herd.
func (m *Manager) run(s *sweep) {
	defer m.wg.Done()
	workers := min(m.cfg.Inflight, len(s.points))
	idxc := make(chan int)
	var pwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for i := range idxc {
				m.runPoint(s, i)
			}
		}()
	}
	fed := 0
feed:
	for ; fed < len(s.points); fed++ {
		select {
		case idxc <- fed:
		case <-s.ctx.Done():
			break feed
		}
	}
	close(idxc)
	pwg.Wait()
	// Points never handed to a worker are canceled wholesale.
	for i := fed; i < len(s.points); i++ {
		s.points[i].rec = service.Unanswered(s.plan[i].Key, s.plan[i].Req, service.StateCanceled, "sweep canceled")
		m.publish(s, i)
	}
	s.plan = nil

	s.mu.Lock()
	s.st.State = service.StateDone
	if s.st.Canceled > 0 || s.ctx.Err() != nil {
		s.st.State = service.StateCanceled
	}
	s.finish = time.Now()
	final := s.statusLocked()
	s.mu.Unlock()
	m.sweepsActive.Add(-1)
	outcome := string(final.State)
	if final.Failed > 0 {
		outcome = "failed"
	}
	m.svc.SpanLog().Record(telemetry.Span{
		Name: "sweep", Job: final.ID, Outcome: outcome, Start: s.start, End: s.finish,
	})
	close(s.done)
}

// runPoint takes grid point i through the service's walk to a terminal job
// and records how it ended. A point a worker takes after the sweep was
// canceled is not walked: the feed's select may pick a ready worker over
// the closed context, and such a point has no source.
func (m *Manager) runPoint(s *sweep, i int) {
	pp := s.plan[i]
	var rec *service.Record
	source, err := "", s.ctx.Err()
	if err == nil {
		rec, source, err = m.svc.Do(s.ctx, pp.Req, m.cfg.Dispatcher)
	}
	switch {
	case err != nil && s.ctx.Err() != nil:
		rec = service.Unanswered(pp.Key, pp.Req, service.StateCanceled, "sweep canceled")
	case errors.Is(err, service.ErrShuttingDown):
		rec = service.Unanswered(pp.Key, pp.Req, service.StateCanceled, err.Error())
	case err != nil:
		// Parse vetted the spec, so this is the fleet's refusal or a bug;
		// either way it is the point's failure.
		rec = service.Unanswered(pp.Key, pp.Req, service.StateFailed, err.Error())
	}
	s.points[i] = point{rec: rec, source: source}
	m.publish(s, i)
}

// publish makes terminal point i visible to streamers and accounting. The
// point must not change afterwards.
func (m *Manager) publish(s *sweep, i int) {
	p := s.points[i]
	j := p.rec.Job()
	s.mu.Lock()
	s.completedOrder = append(s.completedOrder, i)
	switch j.State {
	case service.StateDone:
		s.st.Done++
		if j.CacheHit {
			s.st.CacheHits++
		}
		if j.StoreHit {
			s.st.StoreHits++
		}
		if p.source == service.RouteRemote {
			s.st.Remote++
		}
	case service.StateCanceled:
		s.st.Canceled++
	default:
		s.st.Failed++
	}
	s.mu.Unlock()
	m.pointsTotal.With(string(j.State)).Inc()
	m.pointsActive.Add(-1)
}

// lookup returns sweep id's record, nil when none is retained.
func (m *Manager) lookup(id string) *sweep {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sweeps[id]
}

// Get returns the sweep's status snapshot.
func (m *Manager) Get(id string) (Status, bool) {
	s := m.lookup(id)
	if s == nil {
		return Status{}, false
	}
	return s.status(), true
}

// Sweeps lists snapshots of all retained sweeps, oldest first.
func (m *Manager) Sweeps() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, len(m.order))
	for i, id := range m.order {
		out[i] = m.sweeps[id].status()
	}
	return out
}

// Cancel requests cancellation of a sweep: no further points are fed,
// in-flight points are cancelled (including their underlying jobs), and the
// sweep reaches the canceled state. Cancelling a terminal sweep is a no-op.
func (m *Manager) Cancel(id string) (Status, error) {
	s := m.lookup(id)
	if s == nil {
		return Status{}, ErrUnknownSweep
	}
	s.cancel()
	return s.status(), nil
}

// PointsSince returns the terminal points published after cursor (a count
// of points already consumed), the new cursor, and the sweep's status — the
// polling primitive the NDJSON streamers are built on.
func (m *Manager) PointsSince(id string, cursor int) ([]PointStatus, int, Status, bool) {
	s := m.lookup(id)
	if s == nil {
		return nil, cursor, Status{}, false
	}
	s.mu.Lock()
	cursor = min(max(cursor, 0), len(s.completedOrder))
	fresh := s.completedOrder[cursor:]
	out := make([]PointStatus, len(fresh))
	for i, idx := range fresh { // each point on the wire, built from its record
		j, source := s.points[idx].rec.Job(), s.points[idx].source
		out[i] = PointStatus{Index: idx, Key: j.Key, Spec: j.Request, State: j.State, CacheHit: j.CacheHit,
			StoreHit: j.StoreHit, Source: source, Result: j.Result, Error: j.Error}
	}
	st := s.statusLocked()
	s.mu.Unlock()
	return out, cursor + len(out), st, true
}

// Done exposes the sweep's completion channel (closed at terminal state).
func (m *Manager) Done(id string) (<-chan struct{}, bool) {
	s := m.lookup(id)
	if s == nil {
		return nil, false
	}
	return s.done, true
}

// Wait blocks until the sweep is terminal or ctx ends, returning the latest
// status either way.
func (m *Manager) Wait(ctx context.Context, id string) (Status, error) {
	s := m.lookup(id)
	if s == nil {
		return Status{}, ErrUnknownSweep
	}
	select {
	case <-s.done:
		return s.status(), nil
	case <-ctx.Done():
		return s.status(), ctx.Err()
	}
}

// Shutdown stops accepting sweeps and waits for active ones to finish; when
// ctx expires first, every remaining sweep is cancelled and Shutdown waits
// for the workers to unwind. Call before the service manager's own
// Shutdown, with the same drain deadline.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.mu.Lock()
		for _, s := range m.sweeps {
			s.cancel()
		}
		m.mu.Unlock()
		<-done
		return ctx.Err()
	}
}
