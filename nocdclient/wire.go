package nocdclient

import "pseudocircuit/noc"

// The daemon's wire schema, declared once: internal/service, internal/sweepapi
// and cmd/nocd alias these types and encode them, this client decodes them.

// Request is the body of a job submission: an experiment spec plus a
// workload selection. The embedded noc.Spec fields appear at the top level
// of the JSON object ("topology", "scheme", ...), the workload nested under
// "workload".
type Request struct {
	noc.Spec
	Workload noc.WorkloadSpec `json:"workload"`
}

// State is the lifecycle phase of a job, a sweep or a sweep point. A job
// passes through queued and running; a sweep is running until it is done or
// canceled; a point is reported only once terminal.
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
	ETASeconds float64 `json:"etaSeconds,omitempty"`
	Request    Request `json:"request"`
	// Result is set once the job is done. Inside the daemon it is shared
	// by every record, cache entry and sweep point of the key: read-only.
	Result *noc.Result `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// Terminal reports whether the job has finished (successfully or not).
func (j Job) Terminal() bool { return j.State.Terminal() }

// SweepStatus is an immutable snapshot of one sweep.
type SweepStatus struct {
	ID    string `json:"id"`
	State State  `json:"state"` // running|done|canceled
	// Points is the grid size; Completed counts terminal points.
	Points    int `json:"points"`
	Completed int `json:"completed"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Canceled  int `json:"canceled"`
	// CacheHits counts points served on the node without simulating
	// (StoreHits of those from the disk tier); Remote counts points served
	// by peers.
	CacheHits int `json:"cacheHits"`
	StoreHits int `json:"storeHits"`
	Remote    int `json:"remote"`
	// ElapsedMS is wall time since submission (final once terminal).
	ElapsedMS float64 `json:"elapsedMs"`
}

// Terminal reports whether the sweep has finished.
func (s SweepStatus) Terminal() bool { return s.State.Terminal() }

// SweepPoint is one completed grid point: the canonical spec, where and how
// it was served, and the result. Inside the daemon a point is a view of the
// job record that answered it, built when it is read: Index and Source are
// the sweep's, every other field the record's. That record is shared with
// every submission that joined the same job in flight; a point answered by a
// peer, refused or canceled has one of its own.
type SweepPoint struct {
	Index    int     `json:"index"`
	Key      string  `json:"key"`
	Spec     Request `json:"spec"`
	State    State   `json:"state"` // done|failed|canceled
	CacheHit bool    `json:"cacheHit,omitempty"`
	StoreHit bool    `json:"storeHit,omitempty"`
	Source   string  `json:"source,omitempty"` // local|remote|fallback
	// Result is the pointer the point's job record holds, shared with the
	// daemon's other records of the key: read-only.
	Result *noc.Result `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// SweepLine is one line of a sweep's NDJSON stream: a leading "sweep" line
// with the accepted sweep, one "point" line per completed grid point in
// completion order, and a final "end" line with the terminal status. A
// stream that stops without an "end" line was cut off, and clients must
// treat it so.
type SweepLine struct {
	Type  string       `json:"type"`
	Sweep *SweepStatus `json:"sweep,omitempty"`
	Point *SweepPoint  `json:"point,omitempty"`
}
