package noc_test

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"pseudocircuit/noc"
)

func TestSpecRoundTrip(t *testing.T) {
	specs := []noc.Spec{
		{Topology: "mesh8x8", Scheme: "pseudo+s+b", Routing: "xy", VA: "static"},
		{Topology: "cmesh4x4x4", Scheme: "baseline", Routing: "o1turn", VA: "dynamic", Seed: 7},
		{Topology: "mecs4x4x4", Scheme: "pseudo", Routing: "yx", VA: "static", StaticKey: "flow"},
		{Topology: "fbfly4x4x4", Scheme: "pseudo+b", NumVCs: 8, BufDepth: 2},
	}
	for _, s := range specs {
		e, err := s.Experiment()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		back := noc.SpecOf(e)
		if back.Topology != s.Topology {
			t.Errorf("topology %q -> %q", s.Topology, back.Topology)
		}
		if back.Scheme != s.Scheme {
			t.Errorf("scheme %q -> %q", s.Scheme, back.Scheme)
		}
		e2, err := back.Experiment()
		if err != nil {
			t.Fatalf("re-parse of %v: %v", back, err)
		}
		if e2.Scheme != e.Scheme || e2.Routing != e.Routing || e2.Policy != e.Policy {
			t.Errorf("round trip changed config: %v vs %v", noc.SpecOf(e2), back)
		}
	}
}

func TestSpecRejectsGarbage(t *testing.T) {
	for _, s := range []noc.Spec{
		{Topology: "ring8"},
		{Topology: "mesh8x8", Scheme: "magic"},
		{Topology: "mesh8x8", Scheme: "baseline", Routing: "diagonal"},
		{Topology: "mesh8x8", Scheme: "baseline", VA: "quantum"},
		{Topology: "mesh8x8", Scheme: "baseline", StaticKey: "vibes"},
		{Topology: "mesh8x8", Reliable: &noc.ReliableSpec{Timeout: 100, MaxTimeout: 50}},
	} {
		if _, err := s.Experiment(); err == nil {
			t.Errorf("spec %v accepted", s)
		}
	}
}

func TestSpecJSON(t *testing.T) {
	raw := `{"topology":"cmesh4x4x4","scheme":"pseudo+s+b","va":"static","warmup":200,"measure":800}`
	var s noc.Spec
	if err := json.Unmarshal([]byte(raw), &s); err != nil {
		t.Fatal(err)
	}
	e, err := s.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunCMP("fma3d")
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsDelivered == 0 {
		t.Fatal("JSON-configured experiment delivered nothing")
	}
}

func TestSpecDefaults(t *testing.T) {
	s := noc.Spec{Topology: "mesh4x4", Scheme: ""}
	e, err := s.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	if e.Scheme.Pseudo {
		t.Error("empty scheme should be baseline")
	}
	// A timeout beyond the default backoff cap raises the cap with it.
	e, err = noc.Spec{Topology: "mesh4x4", Reliable: &noc.ReliableSpec{Timeout: 5000}}.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	if r := noc.SpecOf(e).Reliable; r.Timeout != 5000 || r.MaxTimeout != 5000 {
		t.Errorf("canonical reliable spec %+v, want timeout and maxTimeout 5000", r)
	}
	// A scheme with no canonical name is spelled by its String.
	e.Scheme = noc.Scheme{Speculation: true}
	if got, want := noc.SpecOf(e).Scheme, strings.ToLower(e.Scheme.String()); got != want {
		t.Errorf("unnamed scheme printed %q, want %q", got, want)
	}
}

// TestSpecString: a spec prints as its JSON, and one that has no JSON (a
// NaN probability) says why.
func TestSpecString(t *testing.T) {
	if got := (noc.Spec{Topology: "mesh4x4"}).String(); !strings.HasPrefix(got, `{"topology":"mesh4x4"`) {
		t.Errorf("String = %s", got)
	}
	nan := noc.Spec{Topology: "mesh4x4", Churn: &noc.ChurnSpec{LinkFail: math.NaN()}}
	if got := nan.String(); !strings.HasPrefix(got, "Spec{") || !strings.Contains(got, "NaN") {
		t.Errorf("String of a NaN spec = %s", got)
	}
}

// TestParseTopologyName: every form Spec.Topology documents parses, with
// unsigned decimal dimensions and no leading zero; anything else, a valid
// name with text around it included, is refused, and a parse allocates
// nothing.
func TestParseTopologyName(t *testing.T) {
	for name, want := range map[string][4]any{
		"mesh8x16":     {"mesh", 8, 16, 1},
		"cmesh8x8x2":   {"cmesh", 8, 8, 2},
		"mecs4x4x4":    {"mecs", 4, 4, 4},
		"fbfly2x3x4":   {"fbfly", 2, 3, 4},
		"mesh0x4":      {"mesh", 0, 4, 1}, // parsed, not judged: bounds are the caller's
		"cmesh64x10x0": {"cmesh", 64, 10, 0},
	} {
		kind, kx, ky, c, err := noc.ParseTopologyName(name)
		if got := [4]any{kind, kx, ky, c}; err != nil || got != want {
			t.Errorf("%s: got %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{
		"", "ring8", "mesh", "mesh8", "cmesh4x4", "cmeshy4x4x4", "fbfly",
		"mesh4x4x9", "mesh4x4junk", "mesh 4x4", "mesh+4x4", "mesh8x8x2",
		"mesh-4x-4", "mesh04x4", "mesh4x", "meshx4", "mesh4X4", " mesh4x4", "mesh4x4\n",
		"cmesh4x4x4x4", "mecs4x4x", "fbfly2x2x-1", "fbfly2x2x+1", "mesh99999999999999999999x4",
	} {
		if kind, _, _, _, err := noc.ParseTopologyName(name); err == nil || err.Error() != fmt.Sprintf("noc: unknown topology %q", name) {
			t.Errorf("%q: parsed as %s, error %v", name, kind, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _, _, _, _ = noc.ParseTopologyName("cmesh8x8x2") }); n != 0 {
		t.Errorf("a parse allocates %v objects", n)
	}
}

// TestSpecOfNamesTheTopology: the name SpecOf prints is read off the value,
// so it parses back to the same kind, grid and concentration — non-square
// grids included, which a name guessed from the router count gets wrong.
func TestSpecOfNamesTheTopology(t *testing.T) {
	for _, topo := range []noc.Topology{
		noc.Mesh(8, 2), noc.CMesh(2, 8, 4), noc.MECS(8, 2, 4), noc.MECS(5, 3, 4), noc.FBFly(2, 8, 4), noc.FBFly(4, 4, 4),
	} {
		name := noc.SpecOf(noc.Experiment{Topology: topo}).Topology
		back, err := noc.ParseTopology(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		kx, ky := topo.Dims()
		bx, by := back.Dims()
		if bx != kx || by != ky || back.Concentration() != topo.Concentration() || back.Name() != topo.Name() {
			t.Errorf("%s %dx%dx%d printed as %q, which is %s %dx%dx%d",
				topo.Name(), kx, ky, topo.Concentration(), name, back.Name(), bx, by, back.Concentration())
		}
	}
}

// buildPanic returns what Build panics with ("<nil>" if it does not).
func buildPanic(e noc.Experiment) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	e.Build()
	return
}

// TestOneRuleList: every model rule is an error from Spec.Experiment, and
// the same message is what Build panics with for the equivalent literal.
func TestOneRuleList(t *testing.T) {
	downUp := []noc.FaultEvent{
		{Cycle: 10, Kind: noc.LinkDown, Router: 0}, {Cycle: 20, Kind: noc.LinkUp, Router: 0},
	}
	faults := &noc.FaultSpec{Events: []noc.FaultEventSpec{
		{Cycle: 10, Kind: "link-down", Router: 0}, {Cycle: 20, Kind: "link-up", Router: 0},
	}}
	for name, c := range map[string]struct {
		spec noc.Spec
		exp  noc.Experiment
		want string
	}{
		"negative numVCs":   {noc.Spec{Topology: "mesh4x4", NumVCs: -1}, noc.Experiment{Topology: noc.Mesh(4, 4), NumVCs: -1}, "negative"},
		"negative bufDepth": {noc.Spec{Topology: "mesh4x4", BufDepth: -1}, noc.Experiment{Topology: noc.Mesh(4, 4), BufDepth: -1}, "negative"},
		"negative warmup":   {noc.Spec{Topology: "mesh4x4", Warmup: -1}, noc.Experiment{Topology: noc.Mesh(4, 4), Warmup: -1}, "negative"},
		"negative measure":  {noc.Spec{Topology: "mesh4x4", Measure: -5}, noc.Experiment{Topology: noc.Mesh(4, 4), Measure: -5}, "negative"},
		"too many VCs":      {noc.Spec{Topology: "mesh4x4", NumVCs: 65}, noc.Experiment{Topology: noc.Mesh(4, 4), NumVCs: 65}, "lane limit"},
		"radix too wide":    {noc.Spec{Topology: "fbfly40x40x1"}, noc.Experiment{Topology: noc.FBFly(40, 40, 1)}, "lane limit"},
		"depth too deep":    {noc.Spec{Topology: "mesh4x4", BufDepth: 32768}, noc.Experiment{Topology: noc.Mesh(4, 4), BufDepth: 32768}, "32767-flit depth limit"},
		"o1turn odd VCs": {noc.Spec{Topology: "mesh4x4", Routing: "o1turn", NumVCs: 3},
			noc.Experiment{Topology: noc.Mesh(4, 4), Routing: noc.O1TURN, NumVCs: 3}, "O1TURN"},
		"faults and churn": {noc.Spec{Topology: "mesh4x4", Faults: faults, Churn: &noc.ChurnSpec{LinkFail: 1e-4}},
			noc.Experiment{Topology: noc.Mesh(4, 4), Faults: &noc.FaultSchedule{Events: downUp}, Churn: &noc.FaultChurn{LinkFail: 1e-4}},
			"mutually exclusive"},
		"faults off the grid": {noc.Spec{Topology: "mecs4x4x4", Faults: faults},
			noc.Experiment{Topology: noc.MECS(4, 4, 4), Faults: &noc.FaultSchedule{Events: downUp}}, "mecs4x4x4 does not support"},
		"churn off the grid": {noc.Spec{Topology: "fbfly2x8x4", Churn: &noc.ChurnSpec{LinkFail: 1e-4}},
			noc.Experiment{Topology: noc.FBFly(2, 8, 4), Churn: &noc.FaultChurn{LinkFail: 1e-4}}, "fbfly2x8x4 does not support"},
		"evc scheme": {noc.Spec{Topology: "mesh4x4", Scheme: "pseudo", UseEVC: true},
			noc.Experiment{Topology: noc.Mesh(4, 4), Scheme: noc.Pseudo, UseEVC: true}, "scheme must be baseline"},
		"evc topology": {noc.Spec{Topology: "mecs4x4x4", UseEVC: true},
			noc.Experiment{Topology: noc.MECS(4, 4, 4), UseEVC: true}, "mesh or cmesh"},
		"evc o1turn": {noc.Spec{Topology: "mesh4x4", Routing: "o1turn", UseEVC: true},
			noc.Experiment{Topology: noc.Mesh(4, 4), Routing: noc.O1TURN, UseEVC: true}, "single-class"},
		"evc two VCs": {noc.Spec{Topology: "mesh4x4", NumVCs: 2, UseEVC: true},
			noc.Experiment{Topology: noc.Mesh(4, 4), NumVCs: 2, UseEVC: true}, "express"},
		"evc odd express VCs": {noc.Spec{Topology: "cmesh4x4x4", NumVCs: 6, UseEVC: true},
			noc.Experiment{Topology: noc.CMesh(4, 4, 4), NumVCs: 6, UseEVC: true}, "express"},
	} {
		_, err := c.spec.Experiment()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Spec.Experiment err = %v, want one mentioning %q", name, err, c.want)
			continue
		}
		if got := buildPanic(c.exp); got != err.Error() {
			t.Errorf("%s: Build panicked with %q, Spec.Experiment said %q", name, got, err)
		}
	}
}

// TestAcceptedSpecsRun: Spec.Experiment is total. Over a grid of small
// specs, whatever it and WorkloadSpec.Workload accept builds and runs
// without a panic from a lower layer.
func TestAcceptedSpecsRun(t *testing.T) {
	ran := 0
	for _, topo := range []string{"mesh4x2", "cmesh2x2x2", "mecs3x2x2", "fbfly2x3x2", "mesh1x8", "cmesh4x4x0"} {
		for _, scheme := range []string{"baseline", "pseudo+s+b"} {
			for _, routing := range []string{"xy", "o1turn"} {
				for _, evc := range []bool{false, true} {
					for vcs := 0; vcs <= 9; vcs++ {
						for _, pattern := range []string{"uniform", "transpose"} {
							s := noc.Spec{Topology: topo, Scheme: scheme, Routing: routing, UseEVC: evc, NumVCs: vcs, Warmup: 20, Measure: 60}
							e, err := s.Experiment()
							if err != nil {
								continue
							}
							w, err := noc.WorkloadSpec{Pattern: pattern, Rate: 0.2}.Workload(e)
							if err != nil {
								continue
							}
							if p := buildPanicRun(e, w); p != "<nil>" {
								t.Errorf("%v %s: accepted, then panicked: %s", s, pattern, p)
							}
							ran++
						}
					}
				}
			}
		}
	}
	t.Logf("%d specs accepted and run", ran)
	if ran < 100 {
		t.Errorf("only %d specs accepted; the grid no longer exercises the rules", ran)
	}
}

func buildPanicRun(e noc.Experiment, w noc.Workload) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	e.Run(w)
	return
}

// TestWorkloadRulesAreErrors: what a workload needs of the topology is an
// error beside the name checks, not a constructor's panic.
func TestWorkloadRulesAreErrors(t *testing.T) {
	small := noc.Experiment{Topology: noc.Mesh(4, 4)}
	if _, err := (noc.WorkloadSpec{Kind: "cmp", Benchmark: "fma3d"}).Workload(small); err == nil || !strings.Contains(err.Error(), "64-terminal") {
		t.Errorf("cmp on 16 nodes: err = %v, want the 64-terminal rule", err)
	}
	if _, err := (noc.WorkloadSpec{Pattern: "zigzag", Rate: 0.1}).Normalize(small); err == nil {
		t.Error("pattern zigzag: accepted")
	}
	// A Go caller that skips the spec layer meets the same rules as a panic.
	oblong := noc.Experiment{Topology: noc.Mesh(8, 4)}
	for _, c := range []struct {
		e    noc.Experiment
		w    noc.WorkloadSpec
		rule string
	}{
		{oblong, noc.WorkloadSpec{Pattern: "transpose", Rate: 0.1}, "square"},
		{small, noc.WorkloadSpec{Rate: 0.1, PacketSize: -1}, "packet size"},
		{small, noc.WorkloadSpec{Rate: math.NaN()}, "rate"},
		{small, noc.WorkloadSpec{Rate: 0}, "rate"},
		{small, noc.WorkloadSpec{Rate: 1.5}, "rate"},
	} {
		_, err := c.w.Normalize(c.e)
		if err == nil || !strings.Contains(err.Error(), c.rule) {
			t.Errorf("%+v: err = %v, want the %s rule", c.w, err, c.rule)
			continue
		}
		p, _ := noc.ParsePattern(c.w.Pattern)
		func() {
			defer func() {
				if r := recover(); r != err.Error() {
					t.Errorf("%+v: SyntheticWorkload panicked with %v, want %q", c.w, r, err)
				}
			}()
			c.e.SyntheticWorkload(noc.Synthetic{Pattern: p, Rate: c.w.Rate, PacketSize: c.w.PacketSize})
		}()
	}
	if _, err := (noc.WorkloadSpec{Kind: "cmp", Benchmark: "fma3d"}).Normalize(noc.Experiment{Topology: noc.CMesh(4, 4, 4)}); err != nil {
		t.Errorf("cmp on cmesh4x4x4: %v", err)
	}
}

// TestParseTopologyJudges: ParseTopologyName parses, ParseTopology judges —
// a grid under 2x2 or a concentration under 1 is an error, not the
// constructor's panic.
func TestParseTopologyJudges(t *testing.T) {
	for _, name := range []string{"mesh0x4", "mesh1x8", "mesh8x1", "mesh-4x-4", "cmesh4x4x0", "mecs1x1x4", "fbfly2x2x-1"} {
		if topo, err := noc.ParseTopology(name); err == nil {
			t.Errorf("%s accepted as %v", name, topo)
		}
	}
}
