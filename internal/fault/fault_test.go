package fault

import (
	"reflect"
	"strings"
	"testing"

	"pseudocircuit/internal/topology"
)

func sched(events ...Event) Schedule { return Schedule{Events: events} }

func TestValidateAcceptsWellFormed(t *testing.T) {
	m := topology.NewMesh(4, 4)
	cases := map[string]Schedule{
		"empty": {},
		"link window": sched(
			Event{Cycle: 100, Kind: LinkDown, Router: 5, Port: topology.PortE},
			Event{Cycle: 400, Kind: LinkUp, Router: 5, Port: topology.PortE},
		),
		"router window": sched(
			Event{Cycle: 50, Kind: RouterDown, Router: 10},
			Event{Cycle: 90, Kind: RouterUp, Router: 10},
		),
		"repeated window same target": sched(
			Event{Cycle: 10, Kind: LinkDown, Router: 0, Port: topology.PortS},
			Event{Cycle: 20, Kind: LinkUp, Router: 0, Port: topology.PortS},
			Event{Cycle: 30, Kind: LinkDown, Router: 0, Port: topology.PortS},
			Event{Cycle: 40, Kind: LinkUp, Router: 0, Port: topology.PortS},
		),
		"overlapping targets": sched(
			Event{Cycle: 10, Kind: LinkDown, Router: 1, Port: topology.PortE},
			Event{Cycle: 15, Kind: RouterDown, Router: 6},
			Event{Cycle: 20, Kind: RouterUp, Router: 6},
			Event{Cycle: 25, Kind: LinkUp, Router: 1, Port: topology.PortE},
		),
		"router and link on same router are distinct targets": sched(
			Event{Cycle: 10, Kind: LinkDown, Router: 5, Port: topology.PortW},
			Event{Cycle: 12, Kind: RouterDown, Router: 5},
			Event{Cycle: 14, Kind: RouterUp, Router: 5},
			Event{Cycle: 16, Kind: LinkUp, Router: 5, Port: topology.PortW},
		),
	}
	for name, s := range cases {
		if err := s.Validate(m, 1000); err != nil {
			t.Errorf("%s: unexpected error: %v", name, err)
		}
	}
}

func TestValidateRejectsHostile(t *testing.T) {
	m := topology.NewMesh(4, 4)
	cases := map[string]Schedule{
		"router out of range": sched(
			Event{Cycle: 10, Kind: RouterDown, Router: 16},
			Event{Cycle: 20, Kind: RouterUp, Router: 16},
		),
		"negative router": sched(
			Event{Cycle: 10, Kind: LinkDown, Router: -1, Port: 0},
			Event{Cycle: 20, Kind: LinkUp, Router: -1, Port: 0},
		),
		"port out of range": sched(
			Event{Cycle: 10, Kind: LinkDown, Router: 0, Port: 4},
			Event{Cycle: 20, Kind: LinkUp, Router: 0, Port: 4},
		),
		"unwired edge port": sched(
			// Router 0 sits at (0,0): west is off the grid.
			Event{Cycle: 10, Kind: LinkDown, Router: 0, Port: topology.PortW},
			Event{Cycle: 20, Kind: LinkUp, Router: 0, Port: topology.PortW},
		),
		"router event with port": sched(
			Event{Cycle: 10, Kind: RouterDown, Router: 3, Port: 1},
			Event{Cycle: 20, Kind: RouterUp, Router: 3, Port: 1},
		),
		"past horizon": sched(
			Event{Cycle: 10, Kind: LinkDown, Router: 5, Port: topology.PortE},
			Event{Cycle: 1000, Kind: LinkUp, Router: 5, Port: topology.PortE},
		),
		"negative cycle": sched(
			Event{Cycle: -1, Kind: LinkDown, Router: 5, Port: topology.PortE},
			Event{Cycle: 20, Kind: LinkUp, Router: 5, Port: topology.PortE},
		),
		"down without up": sched(
			Event{Cycle: 10, Kind: LinkDown, Router: 5, Port: topology.PortE},
		),
		"up without down": sched(
			Event{Cycle: 10, Kind: LinkUp, Router: 5, Port: topology.PortE},
		),
		"double down": sched(
			Event{Cycle: 10, Kind: RouterDown, Router: 5},
			Event{Cycle: 20, Kind: RouterDown, Router: 5},
			Event{Cycle: 30, Kind: RouterUp, Router: 5},
		),
		"duplicate event": sched(
			Event{Cycle: 10, Kind: LinkDown, Router: 5, Port: topology.PortE},
			Event{Cycle: 10, Kind: LinkDown, Router: 5, Port: topology.PortE},
			Event{Cycle: 20, Kind: LinkUp, Router: 5, Port: topology.PortE},
		),
		"same-cycle down and up": sched(
			Event{Cycle: 10, Kind: LinkDown, Router: 5, Port: topology.PortE},
			Event{Cycle: 10, Kind: LinkUp, Router: 5, Port: topology.PortE},
		),
	}
	for name, s := range cases {
		if err := s.Validate(m, 1000); err == nil {
			t.Errorf("%s: expected validation error, got nil", name)
		}
	}
	// An unknown kind is refused as one, not as a broken alternation.
	s := sched(Event{Cycle: 10, Kind: numKinds, Router: 5})
	if err := s.Validate(m, 1000); err == nil || !strings.Contains(err.Error(), "unknown event kind") {
		t.Errorf("kind %d: got %v, want an unknown-kind error", int(numKinds), err)
	}
}

func TestValidateRejectsOversized(t *testing.T) {
	m := topology.NewMesh(4, 4)
	var s Schedule
	for i := 0; i <= MaxEvents; i += 2 {
		s.Events = append(s.Events,
			Event{Cycle: int64(i), Kind: RouterDown, Router: 5},
			Event{Cycle: int64(i + 1), Kind: RouterUp, Router: 5},
		)
	}
	if err := s.Validate(m, int64(MaxEvents+10)); err == nil {
		t.Fatalf("expected oversized schedule to be rejected")
	}
}

func TestCanonOrderIndependent(t *testing.T) {
	// The canonical order: cycle, then router, then port, then kind. Each
	// tie below is broken by the next key, against the order the one after
	// it would give.
	want := []Event{
		{Cycle: 10, Kind: LinkDown, Router: 5, Port: 1},
		{Cycle: 10, Kind: LinkDown, Router: 5, Port: 2},
		{Cycle: 10, Kind: LinkDown, Router: 6, Port: 0},
		{Cycle: 20, Kind: LinkUp, Router: 5, Port: 1},
		{Cycle: 20, Kind: LinkUp, Router: 5, Port: 2},
		{Cycle: 20, Kind: LinkUp, Router: 6, Port: 0},
		{Cycle: 30, Kind: LinkDown, Router: 6, Port: 0},
		{Cycle: 30, Kind: RouterDown, Router: 6},
		{Cycle: 40, Kind: LinkUp, Router: 6, Port: 0},
		{Cycle: 40, Kind: RouterUp, Router: 6},
	}
	for _, order := range [][]int{{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, {2, 0, 1, 7, 6, 3, 5, 4, 9, 8}} {
		var s Schedule
		for _, i := range order {
			s.Events = append(s.Events, want[i])
		}
		s.Canon()
		if !reflect.DeepEqual(s.Events, want) {
			t.Errorf("Canon of order %v:\n%v\nwant\n%v", order, s.Events, want)
		}
	}
	s := sched(want...)
	if err := s.Validate(topology.NewMesh(4, 4), 100); err != nil {
		t.Fatalf("canonical schedule failed validation: %v", err)
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Errorf("kind %d: round-trip via %q gave (%d, %v)", int(k), k.String(), int(got), ok)
		}
	}
	if _, ok := KindByName("meltdown"); ok {
		t.Errorf("unknown kind name resolved")
	}
	if got := numKinds.String(); got != "Kind(4)" {
		t.Errorf("numKinds.String() = %q, want Kind(4)", got)
	}
}

func TestPolicyByName(t *testing.T) {
	if p, ok := PolicyByName(""); !ok || p != Drop {
		t.Errorf("empty policy: got (%v, %v)", p, ok)
	}
	for _, want := range []Policy{Drop, Reroute} {
		if p, ok := PolicyByName(want.String()); !ok || p != want {
			t.Errorf("%v: got (%v, %v)", want, p, ok)
		}
	}
	if _, ok := PolicyByName("explode"); ok {
		t.Errorf("unknown policy resolved")
	}
}

// TestNeighborTable: the State's neighbour table names the router at the far
// end of every direction link, so a dead router kills exactly the links into
// it, and its node table names the router a terminal attaches to.
func TestNeighborTable(t *testing.T) {
	m := topology.NewMesh(4, 4)
	// Router 5 sits at (1,1) of a 4x4 grid.
	want := map[int]int{topology.PortE: 6, topology.PortW: 4, topology.PortN: 1, topology.PortS: 9}
	for out, w := range want {
		st := NewState(sched(Event{Cycle: 1, Kind: RouterDown, Router: w}, Event{Cycle: 2, Kind: RouterUp, Router: w}), m)
		for _, e := range st.Take(1) {
			st.Apply(e)
		}
		for o := 0; o < 4; o++ {
			if dead := st.LinkDead(5, o); dead != (o == out) {
				t.Errorf("router %d down: link 5.%d dead=%v, want %v", w, o, dead, o == out)
			}
		}
	}
	// The far end can be router 0 (west of router 1).
	st := NewState(sched(Event{Cycle: 1, Kind: RouterDown, Router: 0}, Event{Cycle: 2, Kind: RouterUp, Router: 0}), m)
	for _, e := range st.Take(1) {
		st.Apply(e)
	}
	if !st.LinkDead(1, topology.PortW) {
		t.Error("router 0 down: link 1.W still live")
	}
	// Corner router 0 has no west or north neighbor.
	st = NewState(Schedule{}, m)
	for out, wired := range []bool{true, false, false, true} {
		if st.Wired(0, out) != wired {
			t.Errorf("router 0 port %d: wired=%v, want %v", out, !wired, wired)
		}
	}
	// On a concentrated mesh four nodes share a router, and go down with it.
	c := topology.NewCMesh(2, 2, 4)
	st = NewState(sched(Event{Cycle: 1, Kind: RouterDown, Router: 3}, Event{Cycle: 2, Kind: RouterUp, Router: 3}), c)
	for _, e := range st.Take(1) {
		st.Apply(e)
	}
	for node := 0; node < c.Nodes(); node++ {
		r, _, _ := c.NodeRouter(node)
		if st.DstDead(node) != (r == 3) {
			t.Errorf("cmesh node %d on router %d: DstDead=%v with router 3 down", node, r, st.DstDead(node))
		}
	}
}

func TestTakeZeroAllocFastPath(t *testing.T) {
	m := topology.NewMesh(4, 4)
	s := sched(
		Event{Cycle: 1 << 40, Kind: RouterDown, Router: 5},
		Event{Cycle: 1<<40 + 10, Kind: RouterUp, Router: 5},
	)
	if err := s.Validate(m, 1<<41); err != nil {
		t.Fatal(err)
	}
	st := NewState(s, m)
	allocs := testing.AllocsPerRun(100, func() {
		for c := int64(0); c < 1000; c++ {
			if st.Take(c) != nil {
				t.Fatal("unexpected due events")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Take fast path allocated %v times", allocs)
	}
}
