package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"pseudocircuit/internal/service"
	"pseudocircuit/internal/telemetry"
	"pseudocircuit/noc"
	"pseudocircuit/nocdclient"
)

// Config parameterizes a Dispatcher.
type Config struct {
	// Self is this node's own name in the fleet — the exact string the other
	// nodes list it under in their -peers flags (its advertised base URL).
	// Required: without it the node cannot recognize the keys it owns.
	Self string
	// Peers are the other fleet members' base URLs.
	Peers []string
	// Replicas is how many distinct owners are consulted per key before
	// falling back to local execution (default 2, clamped to fleet size).
	Replicas int
	// Retry tunes the per-peer client; zero selects nocdclient defaults.
	Retry nocdclient.RetryPolicy
	// HTTP overrides the transport (tests); nil uses http.DefaultClient. No
	// client-wide timeout is wanted: every request carries its own bound.
	HTTP *http.Client
	// Telemetry, when non-nil, receives the dispatch counters.
	Telemetry *telemetry.Registry
	// Spans, when non-nil, receives a span per remote dispatch.
	Spans *telemetry.SpanLog
}

// How long a peer may take before it counts as down: answerBound for what a
// healthy daemon answers at once (accepting a job by plain POST /jobs,
// reporting its state), pollBound for one long-poll for the job's end,
// renewed while the peer still answers a status read. So a peer that never
// answers costs a point answerBound, one that goes quiet later at most
// pollBound + answerBound.
const (
	answerBound = 5 * time.Second
	pollBound   = 30 * time.Second
)

// Dispatcher routes grid points to their consistent-hash owners: the fleet
// tier of the service's walk (service.Fleet), consulted after every local
// tier missed. It is stateless per-call and safe for concurrent use.
type Dispatcher struct {
	self     string
	ring     *Ring
	clients  map[string]*nocdclient.Client
	replicas int
	// The two bounds, fields only so that tests can shorten them.
	answerBound, pollBound time.Duration

	spans    *telemetry.SpanLog
	routes   telemetry.CounterVec // label route: local|remote|fallback
	peerErrs *telemetry.Counter
}

// New builds a dispatcher over the fleet {Self} ∪ Peers.
func New(cfg Config) (*Dispatcher, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: Self is required")
	}
	members := append([]string{cfg.Self}, cfg.Peers...)
	ring := NewRing(members)
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	hc := cfg.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	d := &Dispatcher{
		self:        cfg.Self,
		ring:        ring,
		clients:     map[string]*nocdclient.Client{},
		replicas:    cfg.Replicas,
		answerBound: answerBound,
		pollBound:   pollBound,
		spans:       cfg.Spans,
	}
	for _, m := range ring.Members() {
		if m != cfg.Self {
			d.clients[m] = nocdclient.New(m).WithHTTP(hc).WithRetry(cfg.Retry)
		}
	}
	if reg := cfg.Telemetry; reg != nil {
		d.routes = reg.CounterVec("nocd_dispatch_total",
			"sweep grid points routed, by route", "route")
		d.peerErrs = reg.Counter("nocd_dispatch_peer_errors_total",
			"peer dispatch attempts that failed and moved to the next replica")
	}
	return d, nil
}

// Ring exposes the dispatcher's ring (status endpoints, tests).
func (d *Dispatcher) Ring() *Ring { return d.ring }

// Dispatch routes one grid point. The key's first Replicas distinct owners
// are tried in ring order: this node itself short-circuits to local
// execution (route "local"); a peer that answers serves the result (route
// "remote"); a peer that rejects the spec outright (4xx) propagates the
// error rather than retrying elsewhere — the rejection is deterministic. If
// every consulted owner is unreachable, the point falls back to local
// execution (route "fallback") so a degraded fleet still completes sweeps.
func (d *Dispatcher) Dispatch(ctx context.Context, key string, req service.Request) (noc.Result, string, error) {
	owners := d.ring.Owners(key, d.replicas)
	for _, owner := range owners {
		if owner == d.self {
			d.count(service.RouteLocal)
			return noc.Result{}, service.RouteLocal, nil
		}
		res, err := d.remote(ctx, owner, key, req)
		if err == nil {
			d.count(service.RouteRemote)
			return res, service.RouteRemote, nil
		}
		if ctx.Err() != nil {
			return noc.Result{}, service.RouteRemote, ctx.Err()
		}
		var apiErr *nocdclient.APIError
		if errors.As(err, &apiErr) && apiErr.Status >= 400 && apiErr.Status < 500 &&
			apiErr.Status != http.StatusTooManyRequests {
			// Deterministic rejection: every peer (and the local service)
			// would refuse the same way. Propagate instead of spreading it.
			return noc.Result{}, service.RouteRemote, err
		}
		if d.peerErrs != nil {
			d.peerErrs.Inc()
		}
	}
	// Every responsible peer is down (or this node owns no replica of the
	// key and none answered): run it here rather than failing the sweep.
	d.count(service.RouteFallback)
	return noc.Result{}, service.RouteFallback, nil
}

// remote runs one grid point on one peer and returns its result, under the
// two bounds above: a peer that stops answering is given up on, one that is
// merely busy is not. ctx ends any of it at once.
func (d *Dispatcher) remote(ctx context.Context, owner, key string, req service.Request) (noc.Result, error) {
	start := time.Now()
	c := d.clients[owner]
	j, err := within(ctx, d.answerBound, func(ctx context.Context) (nocdclient.Job, error) {
		return c.Submit(ctx, req)
	})
	for id := j.ID; err == nil && !j.Terminal(); {
		j, err = within(ctx, d.pollBound, func(ctx context.Context) (nocdclient.Job, error) {
			return c.Wait(ctx, id)
		})
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			j, err = within(ctx, d.answerBound, func(ctx context.Context) (nocdclient.Job, error) {
				return c.Job(ctx, id)
			})
		}
	}
	outcome := "ok"
	switch {
	case err != nil:
		outcome = "error"
	case j.State != service.StateDone:
		outcome = string(j.State)
		err = fmt.Errorf("cluster: peer job %s %s: %s", j.ID, j.State, j.Error)
	case j.Result == nil:
		outcome = "error"
		err = errors.New("cluster: peer returned a done job with no result")
	}
	if d.spans != nil {
		d.spans.Record(telemetry.Span{
			Name: "dispatch", Job: owner, Key: key, Outcome: outcome,
			Start: start, End: time.Now(),
		})
	}
	if err != nil {
		return noc.Result{}, err
	}
	return *j.Result, nil
}

// within runs ask under ctx shortened to at most bound.
func within(ctx context.Context, bound time.Duration, ask func(context.Context) (nocdclient.Job, error)) (nocdclient.Job, error) {
	ctx, cancel := context.WithTimeout(ctx, bound)
	defer cancel()
	return ask(ctx)
}

func (d *Dispatcher) count(route string) {
	if d.routes != (telemetry.CounterVec{}) {
		d.routes.With(route).Inc()
	}
}
