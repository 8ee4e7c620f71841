package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"pseudocircuit/noc"
	"pseudocircuit/nocdclient"
)

// Request is the wire format of a job submission, declared with the rest of
// the wire schema in nocdclient.
type Request = nocdclient.Request

// ErrBadRequest wraps every validation failure of a submitted request, so
// transport layers can map it to a 400 without inspecting message text.
var ErrBadRequest = errors.New("bad request")

// Submission limits. The service materializes topologies and runs cycles on
// behalf of remote callers, so absurd requests are rejected at the front
// door rather than allocating in a worker. These are resource bounds only:
// what makes an experiment valid is noc's to say (Spec.Experiment).
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
	// MaxPacketSize bounds the flits per synthetic packet: a packet's flit
	// slice is allocated at injection.
	MaxPacketSize = 1024
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
	exp, err := materialize(r.Spec)
	if err != nil {
		return r, "", exp, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if err := checkBounds(exp, r); err != nil {
		return r, "", exp, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	wl, err := r.Workload.Normalize(exp)
	if err != nil {
		return r, "", exp, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	canon := Request{Spec: noc.SpecOf(exp), Workload: wl}
	if canon.Topology == r.Topology { // keep the caller's string: a sweep's points share one
		canon.Topology = r.Topology
	}
	ke := keyEncoders.Get().(*keyEncoder)
	defer keyEncoders.Put(ke)
	ke.buf.Reset()
	if err := ke.enc.Encode(&canon); err != nil {
		return r, "", exp, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	enc := ke.buf.Bytes()
	sum := sha256.Sum256(enc[:len(enc)-1]) // json.Marshal's bytes: Encode adds a newline
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return canon, string(key[:]), exp, nil
}

// keyEncoder is a reusable JSON encoder for canonical requests: a key costs
// no buffer of its own.
type keyEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var keyEncoders = sync.Pool{New: func() any {
	ke := &keyEncoder{}
	ke.enc = json.NewEncoder(&ke.buf)
	return ke
}}

// materialize bounds the grid, then runs Spec.Experiment: the topology it
// constructs allocates in proportion to the node count. The recover guard
// is the safety net, not the rule book — Spec.Experiment is meant to be
// total, but the service faces the network and must turn even a rule noc
// missed into a 400.
func materialize(s noc.Spec) (exp noc.Experiment, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("invalid spec: %v", p)
		}
	}()
	_, kx, ky, c, err := noc.ParseTopologyName(s.Topology)
	if err != nil {
		return exp, err
	}
	if kx > MaxDim || ky > MaxDim || c > MaxDim {
		return exp, fmt.Errorf("topology %q has a dimension over %d", s.Topology, MaxDim)
	}
	if nodes := kx * ky * c; nodes > MaxNodes {
		return exp, fmt.Errorf("topology %q has %d nodes, limit %d", s.Topology, nodes, MaxNodes)
	}
	return s.Experiment()
}

// checkBounds rejects a valid experiment that exceeds the service's
// resource bounds.
func checkBounds(exp noc.Experiment, r Request) error {
	if r.BufDepth > 1024 {
		return fmt.Errorf("bufDepth %d over limit 1024", r.BufDepth)
	}
	if r.Workload.PacketSize > MaxPacketSize {
		return fmt.Errorf("packetSize %d over limit %d", r.Workload.PacketSize, MaxPacketSize)
	}
	if warmup, measure := exp.Protocol(); warmup > MaxCycles-measure { // both >= 0: no overflow
		return fmt.Errorf("warmup %d + measure %d exceeds limit %d", warmup, measure, MaxCycles)
	}
	// Reliable delivery keeps three per-peer arrays on every NI — O(nodes²)
	// words total — so it gets a tighter node bound than plain runs.
	if exp.Reliable != nil && exp.Topology.Nodes() > MaxReliableNodes {
		return fmt.Errorf("reliable delivery limited to %d nodes, topology %q has %d",
			MaxReliableNodes, r.Topology, exp.Topology.Nodes())
	}
	return nil
}
