package fault

import (
	"reflect"
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
		"unknown kind": sched(
			Event{Cycle: 10, Kind: Kind(99), Router: 5},
		),
	}
	for name, s := range cases {
		if err := s.Validate(m, 1000); err == nil {
			t.Errorf("%s: expected validation error, got nil", name)
		}
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
	a := sched(
		Event{Cycle: 20, Kind: LinkUp, Router: 1, Port: topology.PortE},
		Event{Cycle: 10, Kind: LinkDown, Router: 1, Port: topology.PortE},
		Event{Cycle: 15, Kind: RouterDown, Router: 6},
		Event{Cycle: 18, Kind: RouterUp, Router: 6},
	)
	b := sched(
		Event{Cycle: 15, Kind: RouterDown, Router: 6},
		Event{Cycle: 10, Kind: LinkDown, Router: 1, Port: topology.PortE},
		Event{Cycle: 18, Kind: RouterUp, Router: 6},
		Event{Cycle: 20, Kind: LinkUp, Router: 1, Port: topology.PortE},
	)
	a.Canon()
	b.Canon()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("canonical forms differ:\n%v\n%v", a, b)
	}
	m := topology.NewMesh(4, 4)
	if err := a.Validate(m, 100); err != nil {
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
}

func TestPolicyByName(t *testing.T) {
	if p, ok := PolicyByName(""); !ok || p != Drop {
		t.Errorf("empty policy: got (%v, %v)", p, ok)
	}
	if p, ok := PolicyByName("reroute"); !ok || p != Reroute {
		t.Errorf("reroute: got (%v, %v)", p, ok)
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
	// Corner router 0 has no west or north neighbor.
	st := NewState(Schedule{}, m)
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

func TestStateReplay(t *testing.T) {
	m := topology.NewMesh(4, 4)
	s := sched(
		Event{Cycle: 10, Kind: LinkDown, Router: 5, Port: topology.PortE},
		Event{Cycle: 10, Kind: RouterDown, Router: 9},
		Event{Cycle: 30, Kind: LinkUp, Router: 5, Port: topology.PortE},
		Event{Cycle: 40, Kind: RouterUp, Router: 9},
	)
	if err := s.Validate(m, 100); err != nil {
		t.Fatal(err)
	}
	st := NewState(s, m)

	if evs := st.Take(9); evs != nil {
		t.Fatalf("cycle 9: unexpected events %v", evs)
	}
	evs := st.Take(10)
	if len(evs) != 2 {
		t.Fatalf("cycle 10: want 2 events, got %v", evs)
	}
	for _, e := range evs {
		st.Apply(e)
	}
	if !st.LinkDead(5, topology.PortE) {
		t.Errorf("link 5.E should be dead")
	}
	if !st.RouterDead(9) {
		t.Errorf("router 9 should be dead")
	}
	// Links into and out of a dead router are dead too: router 9 is east of
	// router 8 on a 4x4 grid.
	if !st.LinkDead(8, topology.PortE) {
		t.Errorf("link 8.E into dead router 9 should be dead")
	}
	if !st.LinkDead(9, topology.PortW) {
		t.Errorf("link 9.W out of dead router 9 should be dead")
	}
	if st.LinkDead(5, topology.PortW) {
		t.Errorf("link 5.W should be alive")
	}
	if !st.DstDead(9) || st.DstDead(5) {
		t.Errorf("node 9 sits on dead router 9, node 5 on live router 5: DstDead = %v, %v", st.DstDead(9), st.DstDead(5))
	}
	if !st.AnyTransientDown() {
		t.Errorf("mid-window: AnyTransientDown=false, want true")
	}

	for _, e := range st.Take(30) {
		st.Apply(e)
	}
	if st.LinkDead(5, topology.PortE) {
		t.Errorf("link 5.E should have recovered at cycle 30")
	}
	for _, e := range st.Take(40) {
		st.Apply(e)
	}
	if st.AnyTransientDown() {
		t.Errorf("all targets restored; AnyTransientDown should be false")
	}
	// Ejection ports die only with their router.
	if st.LinkDead(5, 4) {
		t.Errorf("ejection port on live router should be alive")
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
