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
	// points are the grid in order. A point is owned by exactly one worker
	// until it is published (appended to completedOrder under mu); after
	// publication it is immutable.
	points []PointStatus

	mu             sync.Mutex
	st             Status // all but Completed and ElapsedMS, which statusLocked fills in
	finish         time.Time
	completedOrder []int // publication order; index into points
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
	m := &Manager{
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
	return m
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
		points: make([]PointStatus, len(plan.Points)),
		st:     Status{ID: fmt.Sprintf("s%d", m.seq), State: service.StateRunning, Points: len(plan.Points)},
	}
	for i, pp := range plan.Points {
		s.points[i] = PointStatus{Index: i, Key: pp.Key, Spec: pp.Req}
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
		s, ok := m.sweeps[id]
		if ok && !s.status().Terminal() {
			i++
			continue
		}
		delete(m.sweeps, id)
		m.order = append(m.order[:i], m.order[i+1:]...)
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
				m.runPoint(s, &s.points[i])
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
		p := &s.points[i]
		p.State, p.Error = service.StateCanceled, "sweep canceled"
		m.publish(s, p)
	}

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

// runPoint takes one grid point through the service's walk to a terminal
// job and records how it ended.
func (m *Manager) runPoint(s *sweep, p *PointStatus) {
	defer m.publish(s, p)
	j, source, err := m.svc.Do(s.ctx, p.Spec, m.cfg.Dispatcher)
	p.Source, p.CacheHit, p.StoreHit = source, j.CacheHit, j.StoreHit
	switch {
	case err != nil && s.ctx.Err() != nil:
		p.State, p.Error = service.StateCanceled, "sweep canceled"
	case errors.Is(err, service.ErrShuttingDown):
		p.State, p.Error = service.StateCanceled, err.Error()
	case err != nil:
		// Parse vetted the spec, so this is the fleet's refusal or a bug;
		// either way it is the point's failure.
		p.State, p.Error = service.StateFailed, err.Error()
	default:
		p.State, p.Result, p.Error = j.State, j.Result, j.Error
	}
}

// publish makes a terminal point visible to streamers and accounting. The
// point's fields must not change afterwards.
func (m *Manager) publish(s *sweep, p *PointStatus) {
	s.mu.Lock()
	s.completedOrder = append(s.completedOrder, p.Index)
	switch p.State {
	case service.StateDone:
		s.st.Done++
		if p.CacheHit {
			s.st.CacheHits++
		}
		if p.StoreHit {
			s.st.StoreHits++
		}
		if p.Source == service.RouteRemote {
			s.st.Remote++
		}
	case service.StateCanceled:
		s.st.Canceled++
	default:
		s.st.Failed++
	}
	s.mu.Unlock()
	m.pointsTotal.With(string(p.State)).Inc()
	m.pointsActive.Add(-1)
}

// Get returns the sweep's status snapshot.
func (m *Manager) Get(id string) (Status, bool) {
	m.mu.Lock()
	s, ok := m.sweeps[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, false
	}
	return s.status(), true
}

// Sweeps lists snapshots of all retained sweeps, oldest first.
func (m *Manager) Sweeps() []Status {
	m.mu.Lock()
	order := append([]string(nil), m.order...)
	ss := make([]*sweep, 0, len(order))
	for _, id := range order {
		if s, ok := m.sweeps[id]; ok {
			ss = append(ss, s)
		}
	}
	m.mu.Unlock()
	out := make([]Status, len(ss))
	for i, s := range ss {
		out[i] = s.status()
	}
	return out
}

// Cancel requests cancellation of a sweep: no further points are fed,
// in-flight points are cancelled (including their underlying jobs), and the
// sweep reaches the canceled state. Cancelling a terminal sweep is a no-op.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	s, ok := m.sweeps[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, ErrUnknownSweep
	}
	s.cancel()
	return s.status(), nil
}

// PointsSince returns the terminal points published after cursor (a count
// of points already consumed), the new cursor, and the sweep's status — the
// polling primitive the NDJSON streamers are built on.
func (m *Manager) PointsSince(id string, cursor int) ([]PointStatus, int, Status, bool) {
	m.mu.Lock()
	s, ok := m.sweeps[id]
	m.mu.Unlock()
	if !ok {
		return nil, cursor, Status{}, false
	}
	s.mu.Lock()
	if cursor < 0 {
		cursor = 0
	}
	if cursor > len(s.completedOrder) {
		cursor = len(s.completedOrder)
	}
	fresh := s.completedOrder[cursor:]
	out := make([]PointStatus, len(fresh))
	for i, idx := range fresh {
		out[i] = s.points[idx]
	}
	st := s.statusLocked()
	s.mu.Unlock()
	return out, cursor + len(out), st, true
}

// Done exposes the sweep's completion channel (closed at terminal state).
func (m *Manager) Done(id string) (<-chan struct{}, bool) {
	m.mu.Lock()
	s, ok := m.sweeps[id]
	m.mu.Unlock()
	if !ok {
		return nil, false
	}
	return s.done, true
}

// Wait blocks until the sweep is terminal or ctx ends, returning the latest
// status either way.
func (m *Manager) Wait(ctx context.Context, id string) (Status, error) {
	m.mu.Lock()
	s, ok := m.sweeps[id]
	m.mu.Unlock()
	if !ok {
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
