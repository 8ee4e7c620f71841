// Package cmp implements the CMP traffic substrate that stands in for the
// paper's Simics full-system simulation (§5, Table I, Fig. 7): 32
// out-of-order cores with 4 MSHRs each (Kroft-style lockup-free caches,
// giving the self-throttling behaviour the paper relies on), 32
// address-interleaved S-NUCA L2 banks, and a directory-based MSI protocol
// with write-through, write-invalidation semantics generating the paper's
// three transaction types: read, write, and coherence management.
//
// The paper drives its network with traces extracted from SPEC OMP2001,
// PARSEC, NAS Parallel Benchmarks, SPECjbb and SPLASH-2 applications. Those
// traces are proprietary-toolchain artifacts we cannot obtain, so each
// benchmark is modelled by a workload profile: a synthetic address-stream
// generator whose parameters (miss rate, read fraction, sharing degree,
// working-set sizes, access skew, burstiness, per-core asymmetry) give each
// benchmark a distinct communication-locality signature. What the
// pseudo-circuit scheme exploits — repeated (L1, home-bank) pair-wise flows
// creating stable crossbar connections — is generated by the coherence
// protocol itself, not by the address values, so the substitution preserves
// the behaviour the evaluation measures (see DESIGN.md §4).
package cmp

// Profile parameterizes one benchmark's synthetic address stream.
type Profile struct {
	// Name is the benchmark label used in reports (paper Figs. 8-11).
	Name string
	// Suite records the benchmark suite for documentation.
	Suite string

	// IssueProb is the probability an unblocked core attempts a memory
	// reference in a cycle (out-of-order cores overlap computation with
	// memory; only the memory stream matters to the network).
	IssueProb float64
	// MissRate is the L1 miss probability per reference.
	MissRate float64
	// ReadFrac is the fraction of misses that are reads; the rest are
	// write-through writes.
	ReadFrac float64

	// SharedFrac is the fraction of misses to the shared working set; the
	// rest go to the core's private working set.
	SharedFrac float64
	// PrivateBlocks and SharedBlocks size the working sets in cache blocks.
	PrivateBlocks int
	SharedBlocks  int
	// Skew in [0,1) concentrates shared accesses on low-numbered blocks
	// (and therefore on few home banks): 0 is uniform; larger values model
	// hotspot-heavy applications such as SPECjbb (paper §6.A notes jbb's
	// "highly skewed and over-utilized network hotspots").
	Skew float64
	// Temporal is the probability a miss repeats the core's previous miss
	// block (communication temporal locality, Fig. 1).
	Temporal float64

	// BurstLen is the mean burst length: after a miss, the core issues a
	// geometric burst of further misses to nearby blocks (spatial locality
	// streaming through the working set).
	BurstLen float64
	// HotCoreFrac and HotCoreBoost model per-core asymmetry: a fraction of
	// cores issues references HotCoreBoost times more often (the traffic
	// asymmetry behind the XY/YX differences in Fig. 9).
	HotCoreFrac  float64
	HotCoreBoost float64

	// L2MissRate is the probability an L2 bank access misses to memory
	// (adding MemoryLatency to the response).
	L2MissRate float64

	// Phase behaviour: applications work on a small set of hot pages for a
	// stretch of execution before moving on (loop tiles, partner exchanges,
	// reduction trees). During a phase of PhaseLen cycles a core draws
	// FocusProb of its misses from FocusPages hot pages; the rest (and each
	// new phase's page set) come from the full working sets. This
	// concentration of flows is what gives real traces their pair-wise
	// communication temporal locality (Fig. 1).
	PhaseLen   int
	FocusPages int
	FocusProb  float64
}

// Profiles returns the benchmark set of paper §5 in reporting order:
// SPEC OMP2001 (fma3d, equake, mgrid), PARSEC (blackscholes, streamcluster,
// swaptions), NAS Parallel Benchmarks, SPECjbb, and SPLASH-2 (FFT, LU,
// radix).
func Profiles() []Profile {
	return []Profile{
		{
			Name: "fma3d", Suite: "SPEC OMP2001",
			IssueProb: 0.075, MissRate: 0.045, ReadFrac: 0.72,
			SharedFrac: 0.35, PrivateBlocks: 4096, SharedBlocks: 2048,
			Skew: 0.10, Temporal: 0.30, BurstLen: 3.0,
			HotCoreFrac: 0.12, HotCoreBoost: 2.0, L2MissRate: 0.06,
			PhaseLen: 800, FocusPages: 4, FocusProb: 0.90,
		},
		{
			Name: "equake", Suite: "SPEC OMP2001",
			IssueProb: 0.084, MissRate: 0.060, ReadFrac: 0.78,
			SharedFrac: 0.45, PrivateBlocks: 8192, SharedBlocks: 4096,
			Skew: 0.05, Temporal: 0.22, BurstLen: 4.0,
			HotCoreFrac: 0.10, HotCoreBoost: 1.8, L2MissRate: 0.10,
			PhaseLen: 500, FocusPages: 6, FocusProb: 0.85,
		},
		{
			Name: "mgrid", Suite: "SPEC OMP2001",
			IssueProb: 0.091, MissRate: 0.050, ReadFrac: 0.80,
			SharedFrac: 0.25, PrivateBlocks: 16384, SharedBlocks: 2048,
			Skew: 0.02, Temporal: 0.35, BurstLen: 6.0,
			HotCoreFrac: 0.05, HotCoreBoost: 1.5, L2MissRate: 0.12,
			PhaseLen: 1200, FocusPages: 3, FocusProb: 0.92,
		},
		{
			Name: "blackscholes", Suite: "PARSEC",
			IssueProb: 0.067, MissRate: 0.020, ReadFrac: 0.85,
			SharedFrac: 0.10, PrivateBlocks: 4096, SharedBlocks: 512,
			Skew: 0.05, Temporal: 0.40, BurstLen: 2.0,
			HotCoreFrac: 0.05, HotCoreBoost: 1.5, L2MissRate: 0.04,
			PhaseLen: 1500, FocusPages: 2, FocusProb: 0.95,
		},
		{
			Name: "streamcluster", Suite: "PARSEC",
			IssueProb: 0.091, MissRate: 0.070, ReadFrac: 0.88,
			SharedFrac: 0.65, PrivateBlocks: 2048, SharedBlocks: 8192,
			Skew: 0.15, Temporal: 0.25, BurstLen: 5.0,
			HotCoreFrac: 0.08, HotCoreBoost: 1.6, L2MissRate: 0.15,
			PhaseLen: 400, FocusPages: 8, FocusProb: 0.80,
		},
		{
			Name: "swaptions", Suite: "PARSEC",
			IssueProb: 0.059, MissRate: 0.015, ReadFrac: 0.75,
			SharedFrac: 0.15, PrivateBlocks: 2048, SharedBlocks: 512,
			Skew: 0.05, Temporal: 0.45, BurstLen: 2.0,
			HotCoreFrac: 0.06, HotCoreBoost: 1.4, L2MissRate: 0.03,
			PhaseLen: 2000, FocusPages: 2, FocusProb: 0.95,
		},
		{
			Name: "npb", Suite: "NAS Parallel Benchmarks",
			IssueProb: 0.084, MissRate: 0.055, ReadFrac: 0.76,
			SharedFrac: 0.40, PrivateBlocks: 8192, SharedBlocks: 4096,
			Skew: 0.08, Temporal: 0.28, BurstLen: 4.0,
			HotCoreFrac: 0.10, HotCoreBoost: 1.7, L2MissRate: 0.10,
			PhaseLen: 600, FocusPages: 5, FocusProb: 0.85,
		},
		{
			Name: "specjbb", Suite: "SPECjbb2000",
			IssueProb: 0.075, MissRate: 0.065, ReadFrac: 0.70,
			SharedFrac: 0.55, PrivateBlocks: 4096, SharedBlocks: 8192,
			Skew: 0.65, Temporal: 0.18, BurstLen: 2.5,
			HotCoreFrac: 0.25, HotCoreBoost: 3.0, L2MissRate: 0.18,
			PhaseLen: 250, FocusPages: 8, FocusProb: 0.70,
		},
		{
			Name: "fft", Suite: "SPLASH-2",
			IssueProb: 0.091, MissRate: 0.055, ReadFrac: 0.80,
			SharedFrac: 0.50, PrivateBlocks: 4096, SharedBlocks: 4096,
			Skew: 0.03, Temporal: 0.20, BurstLen: 5.0,
			HotCoreFrac: 0.05, HotCoreBoost: 1.3, L2MissRate: 0.12,
			PhaseLen: 700, FocusPages: 4, FocusProb: 0.88,
		},
		{
			Name: "lu", Suite: "SPLASH-2",
			IssueProb: 0.084, MissRate: 0.040, ReadFrac: 0.82,
			SharedFrac: 0.30, PrivateBlocks: 4096, SharedBlocks: 2048,
			Skew: 0.12, Temporal: 0.32, BurstLen: 4.0,
			HotCoreFrac: 0.15, HotCoreBoost: 2.2, L2MissRate: 0.08,
			PhaseLen: 900, FocusPages: 3, FocusProb: 0.90,
		},
		{
			Name: "radix", Suite: "SPLASH-2",
			IssueProb: 0.100, MissRate: 0.075, ReadFrac: 0.65,
			SharedFrac: 0.45, PrivateBlocks: 8192, SharedBlocks: 8192,
			Skew: 0.04, Temporal: 0.15, BurstLen: 6.0,
			HotCoreFrac: 0.08, HotCoreBoost: 1.5, L2MissRate: 0.14,
			PhaseLen: 350, FocusPages: 6, FocusProb: 0.78,
		},
	}
}

// profiles is Profiles' table built once, for ProfileByName: canonicalizing
// a service request looks a benchmark up, and should not copy the table.
var profiles = Profiles()

// ProfileByName returns the named profile, or false when unknown.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
