package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"pseudocircuit/noc"
)

// Request is the wire format of a job submission: an experiment spec plus a
// workload selection. The embedded noc.Spec fields appear at the top level
// of the JSON object ("topology", "scheme", ...), the workload nested under
// "workload".
type Request struct {
	noc.Spec
	Workload noc.WorkloadSpec `json:"workload"`
}

// ErrBadRequest wraps every validation failure of a submitted request, so
// transport layers can map it to a 400 without inspecting message text.
var ErrBadRequest = errors.New("bad request")

// Submission limits. The service materializes topologies and runs cycles on
// behalf of remote callers, so absurd requests are rejected at the front
// door rather than allocating in a worker.
const (
	// MaxNodes bounds the terminal count of a requested topology.
	MaxNodes = 4096
	// MaxDim bounds each grid dimension and the concentration.
	MaxDim = 64
	// MaxCycles bounds warmup+measure of one job.
	MaxCycles = 10_000_000
	// MaxReliableNodes bounds topologies running with reliable delivery,
	// whose per-NI sequence/window arrays cost O(nodes) each (O(nodes²)
	// across the network).
	MaxReliableNodes = 1024
	// MaxWorkers bounds the requested cycle-kernel worker count. Worker
	// count never changes results (only wall-clock), so it is stripped from
	// the canonical cache key; the bound just stops a remote caller from
	// demanding an absurd goroutine fan-out.
	MaxWorkers = 32
)

// DecodeRequest parses a job request strictly: unknown fields, trailing
// data and malformed JSON are all ErrBadRequest. It never panics, whatever
// the input (the package fuzz target enforces this).
func DecodeRequest(data []byte) (Request, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r Request
	if err := dec.Decode(&r); err != nil {
		return r, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if dec.More() {
		return r, fmt.Errorf("%w: trailing data after request object", ErrBadRequest)
	}
	return r, nil
}

// Canonicalize validates a request and returns its canonical form, the
// content-address key (hex SHA-256 of the canonical JSON encoding) and the
// materialized experiment. Canonicalization fills every defaulted field
// with its canonical value and lowercases names, so two semantically
// identical requests — reordered JSON fields, defaults spelled out versus
// omitted, case differences — produce identical keys, while any
// behaviour-changing difference (seed, scheme, rate, ...) changes the key.
func Canonicalize(r Request) (Request, string, noc.Experiment, error) {
	var exp noc.Experiment
	if err := checkTopologyBounds(r.Spec.Topology); err != nil {
		return r, "", exp, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	exp, err := materialize(r.Spec)
	if err != nil {
		return r, "", exp, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if err := checkExperiment(exp, r.Spec); err != nil {
		return r, "", exp, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	wl, err := r.Workload.Normalize()
	if err != nil {
		return r, "", exp, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if wl.Kind == "cmp" && exp.Topology.Nodes() != 64 {
		return r, "", exp, fmt.Errorf("%w: cmp workloads need a 64-terminal topology, %s has %d",
			ErrBadRequest, r.Spec.Topology, exp.Topology.Nodes())
	}
	canon := Request{Spec: noc.SpecOf(exp), Workload: wl}
	enc, err := json.Marshal(canon)
	if err != nil {
		return r, "", exp, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	sum := sha256.Sum256(enc)
	return canon, hex.EncodeToString(sum[:]), exp, nil
}

// materialize runs Spec.Experiment under a recover guard: the noc layer is
// panic-on-misuse (it serves trusted in-process callers), while the service
// faces the network and must turn every misuse into a 400.
func materialize(s noc.Spec) (exp noc.Experiment, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("invalid spec: %v", p)
		}
	}()
	return s.Experiment()
}

// checkTopologyBounds bounds the grid dimensions before Spec.Experiment
// constructs the topology, which allocates proportionally to the node
// count.
func checkTopologyBounds(topo string) error {
	_, kx, ky, c, err := noc.ParseTopologyName(topo)
	if err != nil {
		return err
	}
	if kx < 1 || ky < 1 || c < 1 || kx > MaxDim || ky > MaxDim || c > MaxDim {
		return fmt.Errorf("topology %q dimensions outside [1, %d]", topo, MaxDim)
	}
	if nodes := kx * ky * c; nodes > MaxNodes {
		return fmt.Errorf("topology %q has %d nodes, limit %d", topo, nodes, MaxNodes)
	}
	return nil
}

// checkExperiment rejects parameter combinations the noc layer would panic
// on or that exceed the service's resource bounds.
func checkExperiment(exp noc.Experiment, s noc.Spec) error {
	if s.NumVCs < 0 || s.NumVCs > 64 {
		return fmt.Errorf("numVCs %d outside [0, 64]", s.NumVCs)
	}
	if s.BufDepth < 0 || s.BufDepth > 1024 {
		return fmt.Errorf("bufDepth %d outside [0, 1024]", s.BufDepth)
	}
	if s.Warmup < 0 || s.Measure < 0 {
		return fmt.Errorf("negative cycle counts (warmup %d, measure %d)", s.Warmup, s.Measure)
	}
	if s.Workers < 0 || s.Workers > MaxWorkers {
		return fmt.Errorf("workers %d outside [0, %d]", s.Workers, MaxWorkers)
	}
	warmup, measure := exp.Protocol()
	if warmup+measure > MaxCycles {
		return fmt.Errorf("warmup+measure %d exceeds limit %d", warmup+measure, MaxCycles)
	}
	// Reliable delivery keeps three per-peer arrays on every NI — O(nodes²)
	// words total — so it gets a tighter node bound than plain runs.
	if exp.Reliable != nil && exp.Topology.Nodes() > MaxReliableNodes {
		return fmt.Errorf("reliable delivery limited to %d nodes, topology %q has %d",
			MaxReliableNodes, s.Topology, exp.Topology.Nodes())
	}
	if exp.UseEVC {
		if exp.Scheme.Pseudo {
			return fmt.Errorf("useEVC is a comparison baseline; scheme must be baseline")
		}
		if !strings.HasPrefix(s.Topology, "mesh") && !strings.HasPrefix(s.Topology, "cmesh") {
			return fmt.Errorf("useEVC requires a mesh or cmesh topology, got %q", s.Topology)
		}
		if exp.NumVCs != 0 && exp.NumVCs < 2 {
			return fmt.Errorf("useEVC needs at least 2 VCs, got %d", exp.NumVCs)
		}
	}
	return nil
}
