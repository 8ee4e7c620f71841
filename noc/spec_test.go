package noc_test

import (
	"encoding/json"
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
}

func TestParseTopologyName(t *testing.T) {
	for name, want := range map[string][4]any{
		"mesh8x16":   {"mesh", 8, 16, 1},
		"cmesh8x8x2": {"cmesh", 8, 8, 2},
		"mecs4x4x4":  {"mecs", 4, 4, 4},
		"fbfly2x3x4": {"fbfly", 2, 3, 4},
		"mesh-4x-4":  {"mesh", -4, -4, 1}, // parsed, not judged: bounds are the caller's
	} {
		kind, kx, ky, c, err := noc.ParseTopologyName(name)
		if got := [4]any{kind, kx, ky, c}; err != nil || got != want {
			t.Errorf("%s: got %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"", "ring8", "mesh", "mesh8", "cmesh4x4", "cmeshy4x4x4", "fbfly"} {
		if kind, _, _, _, err := noc.ParseTopologyName(name); err == nil {
			t.Errorf("%q accepted as %s", name, kind)
		}
	}
}
