package fault

import (
	"math"
	"reflect"
	"testing"

	"pseudocircuit/internal/topology"
)

// TestChurnExpandDeterministic pins the expansion contract everything else
// (cache keys, the determinism triangle) relies on: equal parameters expand
// to deeply equal schedules, run after run.
func TestChurnExpandDeterministic(t *testing.T) {
	m := topology.NewMesh(4, 4)
	c := Churn{Seed: 7, LinkFail: 1e-3, LinkRepair: 0.02, RouterFail: 1e-4, RouterRepair: 0.01, Policy: Reroute}
	a, err := c.Expand(m, 20000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Expand(m, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) == 0 {
		t.Fatal("expansion produced no events; the test exercises nothing")
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two expansions of identical parameters differ")
	}
	if a.Policy != Reroute {
		t.Errorf("expanded policy = %v, want Reroute", a.Policy)
	}
	if !a.AllowOpen {
		t.Error("churn expansion must be open: chains may still be down at the horizon")
	}
}

// TestChurnExpandSeedAndParamsMatter is the inverse: changing the seed or any
// probability must change the trace (otherwise sweeping churn levels would
// re-measure one schedule).
func TestChurnExpandSeedAndParamsMatter(t *testing.T) {
	m := topology.NewMesh(4, 4)
	base := Churn{Seed: 7, LinkFail: 1e-3, LinkRepair: 0.02}
	ref, err := base.Expand(m, 20000)
	if err != nil {
		t.Fatal(err)
	}
	// Routers cannot fail here, so their chains draw nothing and the links
	// see the seed's first numbers: the trace is pinned, not only stable.
	if n, first := len(ref.Events), ref.Events[0]; n != 1851 || first != (Event{Cycle: 14, Kind: LinkDown, Router: 9}) {
		t.Errorf("expanded %d events from %+v, want 1851 from link 9:0 down at cycle 14", n, first)
	}
	// A certain failure and a zero repair draw nothing either: with every
	// router down for good at cycle 1, the links expand exactly as before.
	dead, err := Churn{Seed: 7, LinkFail: 1e-3, LinkRepair: 0.02, RouterFail: 1}.Expand(m, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if links := dead.Events[len(dead.Events)-len(ref.Events):]; !reflect.DeepEqual(links, ref.Events) {
		t.Errorf("certain, permanent router churn moved the link trace (%d events, %d routers first)", len(dead.Events), len(dead.Events)-len(ref.Events))
	}
	for name, c := range map[string]Churn{
		"seed":       {Seed: 8, LinkFail: 1e-3, LinkRepair: 0.02},
		"linkFail":   {Seed: 7, LinkFail: 2e-3, LinkRepair: 0.02},
		"linkRepair": {Seed: 7, LinkFail: 1e-3, LinkRepair: 0.04},
	} {
		got, err := c.Expand(m, 20000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reflect.DeepEqual(ref.Events, got.Events) {
			t.Errorf("changing %s did not change the expanded trace", name)
		}
	}
}

// TestChurnExpandWellFormed checks the structural shape of an expansion: the
// schedule passes its own validation (cycle order, alternation, bounds), and
// per target the events strictly alternate down/up starting with a down.
func TestChurnExpandWellFormed(t *testing.T) {
	m := topology.NewMesh(4, 4)
	c := Churn{Seed: 3, LinkFail: 2e-3, LinkRepair: 0.05, RouterFail: 5e-4, RouterRepair: 0.03}
	s, err := c.Expand(m, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(m, 5000); err != nil {
		t.Fatalf("expansion does not validate: %v", err)
	}
	type target struct {
		link         bool
		router, port int
	}
	down := map[target]bool{}
	for _, e := range s.Events {
		var tg target
		var isDown bool
		switch e.Kind {
		case LinkDown:
			tg, isDown = target{true, e.Router, e.Port}, true
		case LinkUp:
			tg = target{true, e.Router, e.Port}
		case RouterDown:
			tg, isDown = target{false, e.Router, 0}, true
		case RouterUp:
			tg = target{false, e.Router, 0}
		default:
			t.Fatalf("unexpected event kind %v", e.Kind)
		}
		if down[tg] == isDown {
			t.Fatalf("target %+v: consecutive %v events", tg, e.Kind)
		}
		down[tg] = isDown
	}
	// Certain churn flips every router each cycle, down at 1 and 3 and up at
	// 2; the repair due at the horizon is not scheduled, so each stays down.
	s, err = Churn{RouterFail: 1, RouterRepair: 1}.Expand(topology.NewMesh(2, 2), 4)
	if err != nil || len(s.Events) != 12 || s.Events[11] != (Event{Cycle: 3, Kind: RouterDown, Router: 3}) {
		t.Errorf("certain churn over 4 cycles: %+v, %v; want 12 events, the last router 3 down at cycle 3", s, err)
	}
}

// TestChurnValidateRejectsHostileParams covers the probability domain checks,
// including the NaN trap a plain range comparison would miss.
func TestChurnValidateRejectsHostileParams(t *testing.T) {
	for name, c := range map[string]Churn{
		"negative":  {LinkFail: -0.1},
		"above one": {LinkRepair: 1.5},
		"NaN":       {RouterFail: math.NaN()},
		"inf":       {RouterRepair: math.Inf(1)},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, c)
		}
		if _, err := c.Expand(topology.NewMesh(2, 2), 100); err == nil {
			t.Errorf("%s: Expand accepted %+v", name, c)
		}
	}
	if _, err := (Churn{LinkFail: 0.1}).Expand(topology.NewMesh(2, 2), -1); err == nil {
		t.Error("Expand accepted a negative horizon")
	}
}

// TestChurnExpandZeroIsEmpty: disabled churn (all-zero fail probabilities) and
// a zero horizon both expand to an empty schedule, not an error — the spec
// layer treats "churn absent" and "churn zero" as the same run.
func TestChurnExpandZeroIsEmpty(t *testing.T) {
	m := topology.NewMesh(4, 4)
	if (Churn{Seed: 5, LinkRepair: 0.5, RouterRepair: 0.5}).Enabled() {
		t.Error("a churn that can fail nothing is enabled")
	}
	for name, expand := range map[string]func() (*Schedule, error){
		"zero probabilities": func() (*Schedule, error) { return Churn{Seed: 5, LinkRepair: 0.5}.Expand(m, 10000) },
		"zero horizon":       func() (*Schedule, error) { return Churn{Seed: 5, LinkFail: 0.5}.Expand(m, 0) },
	} {
		s, err := expand()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s.Events) != 0 {
			t.Errorf("%s: expanded to %d events, want none", name, len(s.Events))
		}
	}
}

// TestChurnExpandEventBound: degenerate probabilities over a long horizon must
// surface as an explicit MaxEvents error, never a silent truncation.
func TestChurnExpandEventBound(t *testing.T) {
	m := topology.NewMesh(4, 4)
	c := Churn{Seed: 1, LinkFail: 0.9, LinkRepair: 0.9}
	if _, err := c.Expand(m, 100000); err == nil {
		t.Fatal("near-certain churn over a long horizon expanded without error")
	}
}

// TestChurnPermanentFaults: a zero repair probability yields one terminal down
// per failing target and an open schedule the replay state reports as
// permanent (so drain watchdogs do not wait for a repair that never comes).
func TestChurnPermanentFaults(t *testing.T) {
	m := topology.NewMesh(4, 4)
	c := Churn{Seed: 2, RouterFail: 5e-4}
	s, err := c.Expand(m, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) == 0 {
		t.Fatal("no router ever failed; the test exercises nothing")
	}
	seen := map[int]bool{}
	for _, e := range s.Events {
		if e.Kind != RouterDown {
			t.Fatalf("unexpected %v event with zero repair probability", e.Kind)
		}
		if seen[e.Router] {
			t.Fatalf("router %d failed twice without repairing", e.Router)
		}
		seen[e.Router] = true
	}
	st := NewState(*s, m)
	last := s.Events[len(s.Events)-1]
	for cyc := int64(0); cyc <= last.Cycle; cyc++ {
		for _, e := range st.Take(cyc) {
			st.Apply(e)
		}
	}
	if !st.RouterPermanentlyDown(last.Router) {
		t.Errorf("router %d not reported permanently down after its terminal failure", last.Router)
	}
	if st.AnyTransientDown() {
		t.Error("open-schedule downs reported as transient; drains would stall their stale sweeps")
	}
}
