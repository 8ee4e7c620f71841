// Package sim provides the deterministic simulation substrate shared by all
// other packages: a reproducible random-number generator and small helpers
// for cycle-based bookkeeping.
//
// Everything in the simulator is deterministic given a seed, so experiments
// are exactly repeatable and tests can assert on precise cycle counts.
package sim

import "math"

// Cycle is a simulation time stamp measured in router clock cycles.
type Cycle int64

// RNG is a small, fast, deterministic pseudo-random generator
// (xorshift64* variant). It is not safe for concurrent use; each
// simulation owns one (or derives sub-streams with Split).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has a zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Split derives an independent sub-stream, used to give each traffic source
// its own generator so injector order does not perturb other components.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xA5A5A5A5DEADBEEF)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Threshold returns probability p as the integer ⌈p·2⁵³⌉ that Below compares
// a draw with: 0 for p ≤ 0 or NaN, 2⁵³ for p ≥ 1. A source that flips the
// same coin every cycle computes it once.
//
// Below(Threshold(p)) draws exactly what Bernoulli(p) draws, from the same
// stream. Float64 is u/2⁵³ for the integer u = Uint64()>>11 < 2⁵³, and both
// that quotient and p·2⁵³ are exact (scaling by a power of two; p ≥ 2⁻¹⁰⁷⁴
// keeps p·2⁵³ a normal number), so u/2⁵³ < p holds exactly when u < p·2⁵³,
// which for an integer u is u < ⌈p·2⁵³⌉.
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Below reports whether the next 53-bit draw is under t: true with
// probability t/2⁵³ (Threshold).
func (r *RNG) Below(t uint64) bool {
	return r.Uint64()>>11 < t
}

// Geometric returns a sample from a geometric distribution with success
// probability p (number of failures before the first success). Used for
// burst-length modelling in the CMP workload profiles.
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		p = 1e-9
	}
	n := 0
	for !r.Bernoulli(p) && n < 1<<20 {
		n++
	}
	return n
}
