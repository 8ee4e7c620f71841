package nocdclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
)

// SweepRequest is the daemon's POST /sweeps body: one spec template
// plus named parameter axes; the daemon expands their cartesian product.
// Axis values must be JSON strings or numbers (the axis's natural type).
type SweepRequest struct {
	Template Request          `json:"template"`
	Axes     map[string][]any `json:"axes,omitempty"`
}

// ErrTruncatedStream reports a sweep result stream that stopped before its
// "end" line — the connection was cut and the stream is incomplete. The
// sweep itself keeps running daemon-side; re-submitting the identical sweep
// replays all completed points from the cache.
var ErrTruncatedStream = errors.New("nocdclient: sweep stream truncated before its end line")

// maxStreamLine bounds one NDJSON line; results are a few hundred bytes.
const maxStreamLine = 1 << 20

// SweepStream iterates a sweep's NDJSON result stream. Points arrive in
// completion order as the daemon finishes them. Close the stream when
// abandoning it early; the sweep itself is cancelled only via CancelSweep.
type SweepStream struct {
	sweep SweepStatus
	body  io.ReadCloser
	sc    *bufio.Scanner
	final *SweepStatus
	err   error
}

// SubmitSweep submits a sweep and returns its live result stream. The
// returned stream has already consumed the acceptance line, so Sweep() is
// immediately valid. ctx governs the whole stream, not just the submission:
// cancelling it fails the next Next call and releases the connection (the
// daemon-side sweep keeps running).
//
// Submission is intentionally not retried: sweeps are not content-addressed
// and a blind retry would start a second one. The grid's points are cached
// by spec, so re-submitting after a failure is still cheap — completed
// points replay from the cache — but it is the caller's decision.
func (c *Client) SubmitSweep(ctx context.Context, r SweepRequest) (*SweepStream, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/sweeps?watch=1", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.attempts.Add(1)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, maxStreamLine))
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(msg, &e) == nil && e.Error != "" {
			return nil, &APIError{Status: resp.StatusCode, Message: e.Error}
		}
		return nil, &APIError{Status: resp.StatusCode, Message: string(msg)}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), maxStreamLine)
	st := &SweepStream{body: resp.Body, sc: sc}
	line, err := st.readLine()
	if err != nil {
		resp.Body.Close()
		return nil, fmt.Errorf("nocdclient: reading sweep acceptance: %w", err)
	}
	if line.Type != "sweep" || line.Sweep == nil {
		resp.Body.Close()
		return nil, fmt.Errorf("nocdclient: stream opened with %q line, want sweep", line.Type)
	}
	st.sweep = *line.Sweep
	return st, nil
}

// Sweep returns the accepted sweep's initial status (ID, point count).
func (s *SweepStream) Sweep() SweepStatus { return s.sweep }

// Next returns the next completed point. io.EOF signals a complete stream —
// every point delivered and the terminal status available via Final. Any
// other error means the stream is broken mid-flight: a cut connection
// surfaces ErrTruncatedStream (or the context's error when the caller
// cancelled), a malformed line a decode error. Errors are sticky.
func (s *SweepStream) Next() (SweepPoint, error) {
	if s.err != nil {
		return SweepPoint{}, s.err
	}
	line, err := s.readLine()
	if err != nil {
		s.err = err
		return SweepPoint{}, err
	}
	switch line.Type {
	case "point":
		if line.Point == nil {
			s.err = errors.New("nocdclient: point line without a point")
			return SweepPoint{}, s.err
		}
		return *line.Point, nil
	case "end":
		if line.Sweep == nil {
			s.err = errors.New("nocdclient: end line without a status")
			return SweepPoint{}, s.err
		}
		s.final = line.Sweep
		s.err = io.EOF
		return SweepPoint{}, io.EOF
	default:
		s.err = fmt.Errorf("nocdclient: unexpected %q line mid-stream", line.Type)
		return SweepPoint{}, s.err
	}
}

// readLine scans and decodes one NDJSON line, mapping stream exhaustion
// (scanner EOF or a transport error) onto the truncation contract.
func (s *SweepStream) readLine() (SweepLine, error) {
	if !s.sc.Scan() {
		if err := s.sc.Err(); err != nil {
			return SweepLine{}, fmt.Errorf("%w: %w", ErrTruncatedStream, err)
		}
		return SweepLine{}, ErrTruncatedStream
	}
	var line SweepLine
	if err := json.Unmarshal(s.sc.Bytes(), &line); err != nil {
		return SweepLine{}, fmt.Errorf("nocdclient: malformed stream line: %w", err)
	}
	return line, nil
}

// Final returns the terminal sweep status; valid once Next returned io.EOF.
func (s *SweepStream) Final() (SweepStatus, bool) {
	if s.final == nil {
		return SweepStatus{}, false
	}
	return *s.final, true
}

// Close releases the stream's connection. Safe to call at any point and
// more than once; it never cancels the daemon-side sweep.
func (s *SweepStream) Close() error { return s.body.Close() }

// Sweep fetches a sweep's status snapshot.
func (c *Client) Sweep(ctx context.Context, id string) (SweepStatus, error) {
	var st SweepStatus
	return st, c.doRetry(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet,
			c.base+"/sweeps/"+url.PathEscape(id), nil)
	}, &st)
}

// CancelSweep requests cancellation of a running sweep. Cancellation is
// idempotent, so it retries like the read-side calls.
func (c *Client) CancelSweep(ctx context.Context, id string) (SweepStatus, error) {
	var st SweepStatus
	return st, c.doRetry(ctx, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodPost,
			c.base+"/sweeps/"+url.PathEscape(id)+"/cancel", nil)
	}, &st)
}
