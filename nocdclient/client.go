// Package nocdclient is a small Go client for the nocd simulation daemon.
// It depends only on the public noc package, so external programs can submit
// experiments, follow their progress and fetch cached results. The JSON wire
// schema (Request, Job, State, SweepStatus, SweepPoint, SweepLine) is
// declared here, in wire.go, and nowhere else: the daemon's packages alias
// these types, so what the daemon encodes is what this client decodes.
//
//	c := nocdclient.New("http://localhost:8080")
//	job, err := c.SubmitWait(ctx, nocdclient.Request{
//		Spec:     noc.Spec{Topology: "mesh8x8", Scheme: "pseudo+s+b", VA: "static"},
//		Workload: noc.WorkloadSpec{Pattern: "uniform", Rate: 0.1},
//	})
//	fmt.Println(job.Result.AvgLatency, job.CacheHit)
package nocdclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"pseudocircuit/noc"
)

// APIError is a non-2xx daemon response.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("nocd: %d: %s", e.Status, e.Message)
}

// RetryPolicy configures the client's transient-failure retries. Every
// daemon operation the client issues is idempotent (submission is
// content-addressed: re-submitting joins the cached or in-flight job), so
// transport errors and retryable status codes (429, 502, 503, 504 — the
// daemon answers 503 when a ?wait queue is saturated) are retried with
// jittered exponential backoff until MaxAttempts or the context ends,
// whichever comes first.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first;
	// values below 2 disable retrying. Default 4.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// attempt. Default 50ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Default 2s.
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = p.BaseDelay
	}
	return p
}

// delay returns the jittered backoff before retry number retry (0-based):
// BaseDelay·2^retry capped at MaxDelay, then uniformly jittered in
// [½d, 1½d) so a fleet of clients hammered by the same outage does not
// retry in lockstep.
func (p RetryPolicy) delay(retry int) time.Duration {
	d := p.BaseDelay << uint(retry)
	if d <= 0 || d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// Client talks to one nocd daemon.
type Client struct {
	base  string
	http  *http.Client
	retry RetryPolicy

	attempts     atomic.Uint64 // HTTP attempts issued, including retries
	retries      atomic.Uint64 // attempts beyond the first per operation
	backoffNanos atomic.Uint64 // total time slept between attempts
}

// RetryStats is a snapshot of the client's cumulative retry activity.
type RetryStats struct {
	// Attempts counts every HTTP attempt issued, including first tries.
	Attempts uint64
	// Retries counts attempts beyond the first per operation.
	Retries uint64
	// Backoff is the total time spent sleeping between attempts.
	Backoff time.Duration
}

// RetryStats returns the client's cumulative retry counters. Safe for
// concurrent use; counters only grow over the client's lifetime.
func (c *Client) RetryStats() RetryStats {
	return RetryStats{
		Attempts: c.attempts.Load(),
		Retries:  c.retries.Load(),
		Backoff:  time.Duration(c.backoffNanos.Load()),
	}
}

// New returns a client for the daemon at base (e.g. "http://localhost:8080").
// The zero-timeout default http.Client is used; replace it with WithHTTP for
// custom transports. Transient failures are retried with the default
// RetryPolicy; tune or disable with WithRetry.
func New(base string) *Client {
	return &Client{base: base, http: http.DefaultClient, retry: RetryPolicy{}.withDefaults()}
}

// WithHTTP sets the underlying HTTP client and returns c.
func (c *Client) WithHTTP(h *http.Client) *Client {
	c.http = h
	return c
}

// WithRetry sets the retry policy (zero fields select defaults) and returns
// c. RetryPolicy{MaxAttempts: 1} disables retrying.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	c.retry = p.withDefaults()
	if p.MaxAttempts == 1 {
		c.retry.MaxAttempts = 1
	}
	return c
}

// retryable reports whether err is worth retrying: transport-level failures
// (connection refused/reset, unexpected EOF) and the retryable status codes.
// Context cancellation and deadline expiry are never retried — the caller
// gave up, not the daemon.
func retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Status {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	var urlErr *url.Error
	return errors.As(err, &urlErr)
}

// doRetry runs mk to build a fresh request per attempt (request bodies are
// single-use) and executes it under the retry policy, sleeping the jittered
// backoff between attempts unless ctx ends first.
func (c *Client) doRetry(ctx context.Context, mk func() (*http.Request, error), out any) error {
	for attempt := 0; ; attempt++ {
		req, err := mk()
		if err != nil {
			return err
		}
		if attempt > 0 {
			c.retries.Add(1)
		}
		err = c.do(req, out)
		if err == nil || attempt+1 >= c.retry.MaxAttempts || !retryable(err) {
			return err
		}
		wait := c.retry.delay(attempt)
		slept := time.Now()
		select {
		case <-time.After(wait):
			c.backoffNanos.Add(uint64(wait))
		case <-ctx.Done():
			c.backoffNanos.Add(uint64(time.Since(slept)))
			return err
		}
	}
}

// Submit enqueues a job (or hits the cache / joins an identical in-flight
// job) and returns immediately with its snapshot.
func (c *Client) Submit(ctx context.Context, r Request) (Job, error) {
	return c.submit(ctx, r, false)
}

// SubmitWait submits and blocks until the job is terminal.
func (c *Client) SubmitWait(ctx context.Context, r Request) (Job, error) {
	j, err := c.submit(ctx, r, true)
	if err != nil || j.Terminal() {
		return j, err
	}
	return c.Wait(ctx, j.ID)
}

func (c *Client) submit(ctx context.Context, r Request, wait bool) (Job, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return Job{}, err
	}
	u := c.base + "/jobs"
	if wait {
		u += "?wait=1"
	}
	// Submission is idempotent — the daemon content-addresses requests, so a
	// retried POST joins the cached result or the in-flight duplicate — which
	// is what makes retrying it safe.
	var j Job
	return j, c.doRetry(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	}, &j)
}

// Job fetches the current snapshot.
func (c *Client) Job(ctx context.Context, id string) (Job, error) {
	return c.get(ctx, "/jobs/"+url.PathEscape(id))
}

// Wait long-polls until the job is terminal or ctx ends.
func (c *Client) Wait(ctx context.Context, id string) (Job, error) {
	for {
		j, err := c.get(ctx, "/jobs/"+url.PathEscape(id)+"?wait=1")
		if err != nil || j.Terminal() {
			return j, err
		}
		if err := ctx.Err(); err != nil {
			return j, err
		}
	}
}

// Result fetches the finished job's result.
func (c *Client) Result(ctx context.Context, id string) (noc.Result, error) {
	var res noc.Result
	return res, c.doRetry(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet,
			c.base+"/jobs/"+url.PathEscape(id)+"/result", nil)
	}, &res)
}

// Cancel requests cancellation and returns the (possibly still running)
// snapshot; poll Wait for the terminal state.
func (c *Client) Cancel(ctx context.Context, id string) (Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/jobs/"+url.PathEscape(id)+"/cancel", nil)
	if err != nil {
		return Job{}, err
	}
	var j Job
	return j, c.do(req, &j)
}

// Health pings /healthz.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	c.attempts.Add(1)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &APIError{Status: resp.StatusCode, Message: "health check failed"}
	}
	return nil
}

func (c *Client) get(ctx context.Context, path string) (Job, error) {
	var j Job
	return j, c.doRetry(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	}, &j)
}

// do executes the request and decodes a 2xx body into out, or a non-2xx
// {"error": ...} body into an APIError.
func (c *Client) do(req *http.Request, out any) error {
	c.attempts.Add(1)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		msg := string(body)
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return &APIError{Status: resp.StatusCode, Message: msg}
	}
	return json.Unmarshal(body, out)
}
