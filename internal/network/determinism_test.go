package network_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pseudocircuit/internal/cmp"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/service"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/traffic"
	"pseudocircuit/noc"
	"pseudocircuit/nocdclient"
)

// kernel selects which schedule of the cycle kernel a determinism run uses:
// the naive reference (every router ticked every cycle) or the active-set
// schedule every other run uses.
type kernel struct {
	name  string
	naive bool
}

// kernels is the determinism pair: the naive reference first, then the
// active-set schedule that must leave the same bits.
var kernels = []kernel{
	{"naive", true},
	{"active", false},
}

// experimentNet builds e's network on kernel k, invariant checking on.
func experimentNet(e noc.Experiment, k kernel) *network.Network {
	e.NaiveKernel = k.naive
	n := e.Build()
	n.CheckInvariants = true
	return n
}

// specNet builds the experiment, network and workload of a job request
// through nocd's front door (service.Canonicalize, which runs Spec.Experiment
// under the service's resource bounds, then WorkloadSpec.Workload), on kernel
// k with invariant checking on. A request the front door refuses fails the
// test.
func specNet(t testing.TB, req nocdclient.Request, k kernel) (noc.Experiment, *network.Network, network.Workload) {
	t.Helper()
	_, _, e, err := service.Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	w, err := req.Workload.Workload(e)
	if err != nil {
		t.Fatal(err)
	}
	return e, experimentNet(e, k), w
}

// sameRun fails the test unless two runs left the same measurements: the
// cycle they stopped at, the NI-side struct and every router's own row,
// ports, OutSends and miss census included — so two kernels that agree in
// every network-wide total but count an event at different routers do not
// pass.
func sameRun(t *testing.T, refName, gotName string, ref, got *network.Network) {
	t.Helper()
	if ref.Now() != got.Now() {
		t.Errorf("%s stopped at cycle %d, %s at %d", refName, ref.Now(), gotName, got.Now())
	}
	if !reflect.DeepEqual(ref.Stats, got.Stats) {
		t.Errorf("stats diverge between %s and %s:\n%s: %+v\n%s: %+v", refName, gotName, refName, ref.Stats, gotName, got.Stats)
	}
	rows, gotRows := ref.Registry().Routers(), got.Registry().Routers()
	for r := range rows {
		if !reflect.DeepEqual(rows[r], gotRows[r]) {
			t.Errorf("router %d's counters diverge between %s and %s:\n%s: %+v\n%s: %+v",
				r, refName, gotName, refName, rows[r], gotName, gotRows[r])
			return // one row is enough to read; the rest usually follow from it
		}
	}
}

// censusHolds fails the test at the first router whose header hits and miss
// classes do not sum to its header traversals: every header traversal is a
// hit (it rode a circuit, bypass included) or exactly one miss class.
func censusHolds(t *testing.T, name string, n *network.Network) {
	t.Helper()
	for _, r := range n.Registry().Routers() {
		sum := r.HeadReused
		for _, m := range r.Misses {
			sum += m
		}
		if sum != r.HeadTravs {
			t.Errorf("%s: router %d: %d hits + misses %v = %d, want HeadTravs %d",
				name, r.ID, r.HeadReused, r.Misses, sum, r.HeadTravs)
			return
		}
	}
}

// kernelPair is the determinism harness: run on the naive reference and on
// the active-set schedule, each checking every router's invariants every
// cycle, must conserve the miss census at every router and leave the same
// bits (sameRun).
func kernelPair(t *testing.T, run func(k kernel) *network.Network) {
	t.Helper()
	ref := run(kernels[0])
	censusHolds(t, kernels[0].name, ref)
	for _, k := range kernels[1:] {
		got := run(k)
		censusHolds(t, k.name, got)
		sameRun(t, kernels[0].name, k.name, ref, got)
	}
}

// Bounds on what FuzzSpecKernel runs, past the service's own. A request
// may ask for terminals × cycles up to the largest seed's (mesh24-psb-sparse:
// 576 × 3 000; a terminal's source queue grows with the cycles it offers
// load, and the routers are at most the terminals), and buffer slots
// (routers × VCs × depth) up to a 4×4 mesh of 4 VCs 1 024 flits deep.
const (
	maxTerminalCycles = 576 * 3000
	maxBufferSlots    = 16 * 4 * 1024
)

// fuzzable decodes a FuzzSpecKernel input and says why FuzzSpecKernel skips
// it, if it does: nocd refuses it, or it is past the bounds above.
func fuzzable(data []byte) (nocdclient.Request, error) {
	req, err := service.DecodeRequest(data)
	if err != nil {
		return req, err
	}
	_, _, e, err := service.Canonicalize(req)
	if err != nil {
		return req, err
	}
	warmup, measure := e.Protocol()
	s := noc.SpecOf(e)
	if e.Topology.Nodes()*(warmup+measure) > maxTerminalCycles ||
		e.Topology.Routers()*s.NumVCs*s.BufDepth > maxBufferSlots {
		return req, fmt.Errorf("%s runs %d terminals for %d cycles on %d×%d buffers: past the fuzz bounds",
			s.Topology, e.Topology.Nodes(), warmup+measure, s.NumVCs, s.BufDepth)
	}
	return req, nil
}

// FuzzSpecKernel is the determinism harness over every experiment the front
// door accepts. Its input is one job request in nocd's JSON (a noc.Spec and
// a noc.WorkloadSpec); a request nocd refuses is skipped, and so is one past
// the bounds above. The request runs its warmup and measured window
// (Experiment.RunOn) on the naive and the active-set schedule under
// kernelPair. The named corpus under testdata/fuzz/FuzzSpecKernel holds the
// schedule grid's points: every scheme on a 4×4 mesh, O1TURN with dynamic VA,
// CMesh, FBFLY and the sparse 24×24 mesh (mesh-*, cmesh-*, fbfly-*,
// mesh24-*); every pseudo-circuit scheme on a 6×6 mesh from nearly idle to
// past saturation on 4 VCs of 4 flits, and on 1 VC of 2 flits, where a port
// is dry whenever two flits are in flight on its link (mesh6-*); and the
// public API's synthetic, EVC and CMP points (public-*).
func FuzzSpecKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := fuzzable(data)
		if err != nil {
			t.Skip(err)
		}
		kernelPair(t, func(k kernel) *network.Network {
			e, n, w := specNet(t, req, k)
			e.RunOn(n, w)
			return n
		})
	})
}

// corpusHolds fails the test unless FuzzSpecKernel's named corpus entry is
// the request want (by nocd's canonical key) and FuzzSpecKernel runs it
// rather than skipping it. A corpus file is "go test fuzz v1" and one
// []byte literal.
func corpusHolds(t *testing.T, name string, want nocdclient.Request) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzSpecKernel", name))
	if err != nil {
		t.Error(err)
		return
	}
	header, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	lit, ok := strings.CutPrefix(lit, "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	data, err := strconv.Unquote(lit)
	if header != "go test fuzz v1" || !ok || !ok2 || err != nil {
		t.Errorf("%s: not a go test fuzz v1 []byte entry", name)
		return
	}
	got, err := fuzzable([]byte(data))
	if err != nil {
		t.Errorf("%s: FuzzSpecKernel skips it: %v", name, err)
		return
	}
	_, gotKey, _, _ := service.Canonicalize(got)
	_, wantKey, _, err := service.Canonicalize(want)
	if err != nil || gotKey != wantKey {
		t.Errorf("%s holds %s, want %+v (%v)", name, data, want, err)
	}
}

// TestActiveSetMatchesNaive pins the schedule grid FuzzSpecKernel's corpus
// holds (mesh-*, cmesh-*, fbfly-*, mesh24-*): every scheme on a 4×4 mesh with
// uniform traffic, and the full scheme on O1TURN with dynamic VA, on CMesh,
// on FBFLY and on the sparse 24×24 mesh (576 routers, the largest the
// benchmark builds, most of them outside the active set). The naive and the
// active-set schedule are compared on each under FuzzSpecKernel.
func TestActiveSetMatchesNaive(t *testing.T) {
	point := func(name, topo, scheme, routing, va, pattern string, rate float64) {
		corpusHolds(t, name, nocdclient.Request{
			Spec: noc.Spec{Topology: topo, Scheme: scheme, Routing: routing, VA: va,
				Seed: 42, Warmup: 500, Measure: 2500},
			Workload: noc.WorkloadSpec{Pattern: pattern, Rate: rate},
		})
	}
	for _, s := range []struct{ name, scheme string }{
		{"baseline", "baseline"}, {"pseudo", "pseudo"}, {"pseudo-s", "pseudo+s"},
		{"pseudo-b", "pseudo+b"}, {"psb", "pseudo+s+b"},
	} {
		point("mesh-"+s.name+"-uniform", "mesh4x4", s.scheme, "xy", "static", "uniform", 0.10)
	}
	point("mesh-psb-transpose-o1turn", "mesh4x4", "pseudo+s+b", "o1turn", "dynamic", "transpose", 0.12)
	point("cmesh-psb-uniform", "cmesh3x3x4", "pseudo+s+b", "xy", "static", "uniform", 0.08)
	point("fbfly-pseudo-bitcomp", "fbfly3x3x2", "pseudo", "xy", "dynamic", "bitcomp", 0.08)
	point("mesh24-psb-sparse", "mesh24x24", "pseudo+s+b", "xy", "static", "uniform", 0.002)
}

// TestActiveSetMatchesNaiveAblations pins the corpus points (mesh6-*) where
// a pseudo-circuit router's fixed point is hardest to get right — what its
// Tick returns and which credit wakes it — for every pseudo-circuit scheme:
// on the paper's buffers (4 VCs of 4 flits) from a network nearly always at
// its fixed point to one past saturation, and on one VC of 2 flits, where a
// port is dry whenever two flits are in flight on its link. The narrow points
// are the ones with teeth: a Tick that forgets HeldMask & dry passes every
// wide point. FuzzSpecKernel compares the two schedules on each.
func TestActiveSetMatchesNaiveAblations(t *testing.T) {
	for _, s := range []struct{ name, scheme string }{
		{"pseudo", "pseudo"}, {"pseudo-s", "pseudo+s"}, {"pseudo-b", "pseudo+b"}, {"psb", "pseudo+s+b"},
	} {
		for _, ld := range []struct {
			vcs, depth int
			rate       float64
		}{{4, 4, 0.01}, {4, 4, 0.15}, {4, 4, 0.45}, {1, 2, 0.15}} {
			corpusHolds(t, fmt.Sprintf("mesh6-%s-%dx%d-%.2f", s.name, ld.vcs, ld.depth, ld.rate), nocdclient.Request{
				Spec: noc.Spec{Topology: "mesh6x6", Scheme: s.scheme, Routing: "xy", VA: "static",
					NumVCs: ld.vcs, BufDepth: ld.depth, Seed: 99, Warmup: 200, Measure: 800},
				Workload: noc.WorkloadSpec{Pattern: "uniform", Rate: ld.rate},
			})
		}
	}
}

// TestKernelPairBeyondSpec runs kernelPair on the workloads a request cannot
// name: a bursty hotspot on MECS, fixed flows with idle gaps (the workload
// most likely to expose a router deactivating too early), and the
// closed-loop CMP substrate stopped after a fixed number of misses and
// drained, which drives the network's Drain path rather than Run.
func TestKernelPairBeyondSpec(t *testing.T) {
	psb := noc.Experiment{Scheme: noc.PseudoSB, Routing: noc.XY, Policy: noc.StaticVA}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, k kernel) *network.Network
	}{
		{"mecs-hotspot", func(t *testing.T, k kernel) *network.Network {
			e := psb
			e.Topology = noc.MECS(3, 3, 2)
			n := experimentNet(e, k)
			w := traffic.NewSynthetic(traffic.Config{
				Pattern: traffic.Hotspot, Nodes: e.Topology.Nodes(), Rate: 0.06,
				HotspotNode: 0, HotspotFrac: 0.3,
			}, sim.NewRNG(42))
			n.Run(w, 500)
			n.ResetStats()
			n.Run(w, 2500)
			return n
		}},
		{"flows", func(t *testing.T, k kernel) *network.Network {
			e := psb
			e.Topology = noc.Mesh(4, 4)
			n := experimentNet(e, k)
			n.Run(traffic.NewFlows(
				traffic.Flow{Src: 0, Dst: 15, Size: 5, Period: 37, Start: 3},
				traffic.Flow{Src: 5, Dst: 6, Size: 1, Period: 113, Start: 50},
				traffic.Flow{Src: 12, Dst: 3, Size: 5, Period: 61, Start: 10},
			), 2000)
			return n
		}},
		// About 7 600 cycles and 10 000 packets.
		{"cmp-drain", func(t *testing.T, k kernel) *network.Network {
			e := psb
			e.Topology, e.Policy = noc.CMesh(4, 4, 4), noc.DynamicVA
			n := experimentNet(e, k)
			prof, _ := cmp.ProfileByName("fft")
			w := cmp.New(e.Topology, cmp.PaperTableI(), prof, sim.NewRNG(1))
			w.MaxMisses = 5000
			if !n.Drain(w, 200000) {
				t.Fatalf("%s: the workload did not drain", k.name)
			}
			if got := w.TotalMisses(); got != w.MaxMisses {
				t.Fatalf("%s: drained after %d misses, want %d", k.name, got, w.MaxMisses)
			}
			return n
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			kernelPair(t, func(k kernel) *network.Network { return tc.run(t, k) })
		})
	}
}
