package router_test

import (
	"fmt"
	"strings"
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/fault"
	"pseudocircuit/internal/flit"
	"pseudocircuit/internal/router"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/stats"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/vcalloc"
)

// staticHarness builds a harness with static VA (destination-keyed).
func staticHarness(t *testing.T, opts core.Options) *harness {
	t.Helper()
	h := newHarness(t, opts)
	h.cfg.Alloc = vcalloc.New(vcalloc.Static, 4, 1, 64)
	return h
}

// TestStaticVAPinsVC: under static VA, packets to the same destination use
// the same output VC.
func TestStaticVAPinsVC(t *testing.T) {
	h := staticHarness(t, core.DefaultOptions(core.Baseline))
	mk := func(id uint64, dst int) *flit.Flit {
		p := &flit.Packet{ID: id, Src: 0, Dst: dst, Size: 1}
		f := flit.Split(p)[0]
		f.VC = 0
		f.NextOut = 2
		return f
	}
	h.r.Deliver(0, mk(1, 9))
	h.tick()
	h.tick()
	h.tick()
	h.r.Deliver(0, mk(2, 9))
	h.tick()
	h.tick()
	h.tick()
	if len(h.sent) != 2 {
		t.Fatalf("sent %d", len(h.sent))
	}
	if h.sent[0].f.VC != h.sent[1].f.VC {
		t.Fatalf("same destination on different VCs: %d vs %d", h.sent[0].f.VC, h.sent[1].f.VC)
	}
	alloc := vcalloc.New(vcalloc.Static, 4, 1, 64)
	if want := alloc.StaticVC(0, 9, 0); h.sent[0].f.VC != want {
		t.Fatalf("VC = %d, want destination-keyed %d", h.sent[0].f.VC, want)
	}
}

// TestO1TURNClassSurvivesRetryAndDetour: an O1TURN packet's route class is
// the packet's own (the source NI sets it once), and the router reads it
// through the lane's packet every time it routes or allocates, not only in
// the header's admission cycle. The router is router 5 of a Mesh(4,4), its
// fault view a real one with scheduled link-downs, and every packet heads for
// node 10, one hop east and one south: class 1 (YX) routes S, class 0 (XY) E.
// A class-1 header rerouted at admission while every link of the router is
// dead keeps its nominal S and fails VA until S recovers; an uncommitted
// class-1 header whose output then dies is detoured by FaultScan. Both must
// route and allocate inside class 1 — output 3 and VCs 2 or 3 of 4 — where a
// read that fell back to class 0 (a zeroed field) would route E and take
// VC 0 or 1.
func TestO1TURNClassSurvivesRetryAndDetour(t *testing.T) {
	m := topology.NewMesh(4, 4)
	setup := func(t *testing.T, events ...fault.Event) (*harness, *fault.State) {
		s := fault.Schedule{Events: events}
		if err := s.Validate(m, 100); err != nil {
			t.Fatal(err)
		}
		st := fault.NewState(s, m)
		h := &harness{}
		h.cfg = &router.Config{
			NumVCs: 4, BufDepth: 4,
			Opts:    core.DefaultOptions(core.Baseline),
			Alloc:   vcalloc.New(vcalloc.Dynamic, 4, 2, 64),
			Reg:     stats.NewRegistry([]int{5, 5, 5, 5, 5, 5}, []int{5, 5, 5, 5, 5, 5}),
			Send:    func(id, out int, f *flit.Flit) { h.sent = append(h.sent, sentFlit{out: out, f: f, cycle: h.now}) },
			Credit:  func(id, in, vc int) {},
			Faults:  st,
			Routing: routing.New(routing.O1TURN, m),
		}
		h.r = router.New(5, 5, 5, h.cfg)
		h.r.MarkEjection(4)
		return h, st
	}
	apply := func(st *fault.State, cycle int64) {
		for _, e := range st.Take(cycle) {
			st.Apply(e)
		}
	}
	header := func(id uint64, in int, h *harness) {
		p := &flit.Packet{ID: id, Src: 0, Dst: 10, Size: 2, RouteClass: 1}
		f := flit.Split(p)[0]
		f.VC, f.NextOut = 2, topology.PortN // a lookahead from before the fault
		h.r.Deliver(in, f)
	}
	settle := func(t *testing.T, h *harness) {
		t.Helper()
		for i := 0; i < 4; i++ {
			h.tick()
		}
		if len(h.sent) != 1 {
			t.Fatalf("sent %d flits after the link recovered, want the header", len(h.sent))
		}
		if s := h.sent[0]; s.out != topology.PortS || s.f.VC < 2 {
			t.Fatalf("header left on output %d VC %d, want output 3 and a class-1 VC (2 or 3)", s.out, s.f.VC)
		}
	}
	link := func(cycle int64, kind fault.Kind, port int) fault.Event {
		return fault.Event{Cycle: cycle, Kind: kind, Router: 5, Port: port}
	}

	t.Run("VA retry", func(t *testing.T) {
		var events []fault.Event
		for port := 0; port < 4; port++ {
			up := int64(3)
			if port == topology.PortS {
				up = 2
			}
			events = append(events, link(1, fault.LinkDown, port), link(up, fault.LinkUp, port))
		}
		h, st := setup(t, events...)
		apply(st, 1) // every link of router 5 dead
		header(1, 0, h)
		for i := 0; i < 4; i++ {
			h.tick()
		}
		if len(h.sent) != 0 {
			t.Fatalf("header left on output %d while its class-1 detour was dead", h.sent[0].out)
		}
		apply(st, 2) // S recovers
		settle(t, h)
	})

	t.Run("fault detour", func(t *testing.T) {
		h, st := setup(t, link(1, fault.LinkDown, topology.PortN), link(2, fault.LinkUp, topology.PortN))
		// Two class-1 packets hold both class-1 VCs of output N: their
		// headers leave, their tails have not arrived.
		header(2, 1, h)
		header(3, 2, h)
		for i := 0; i < 4; i++ {
			h.tick()
		}
		if len(h.sent) != 2 {
			t.Fatalf("sent %d headers on the live link, want both blockers'", len(h.sent))
		}
		h.sent = nil
		header(1, 0, h)
		h.tick() // BW
		h.tick() // admitted; VA refused, both class-1 VCs busy, so uncommitted
		if len(h.sent) != 0 {
			t.Fatal("header left before its link was detoured")
		}
		apply(st, 1) // N dies
		h.r.FaultScan(false, func(p *flit.Packet) {
			if p.ID == 1 {
				t.Fatalf("packet %d killed; an uncommitted header is detoured", p.ID)
			}
		})
		settle(t, h)
	})
}

// TestHeadTailPacketsReusePC: single-flit packets (the CMP's address-only
// requests) create and reuse pseudo-circuits like any other.
func TestHeadTailPacketsReusePC(t *testing.T) {
	h := newHarness(t, core.DefaultOptions(core.PseudoSB))
	for i := 0; i < 6; i++ {
		h.r.Deliver(0, mkFlit(uint64(i), 0, 2))
		h.tick()
		h.tick()
		h.tick()
		h.r.DeliverCredit(2, h.sent[len(h.sent)-1].f.VC)
	}
	if h.row.Sum().PCReused < 4 {
		t.Fatalf("PCReused = %d, want >= 4 of 6", h.row.Sum().PCReused)
	}
	if h.row.Sum().Bypassed < 4 {
		t.Fatalf("Bypassed = %d, want >= 4", h.row.Sum().Bypassed)
	}
}

// TestMismatchFallsBackWithoutPenalty: a flit not matching the circuit goes
// through the normal pipeline (3 cycles) — "no performance overhead"
// (§3.B).
func TestMismatchFallsBackWithoutPenalty(t *testing.T) {
	h := newHarness(t, core.DefaultOptions(core.Pseudo))
	h.r.Deliver(0, mkFlit(1, 0, 2))
	h.tick()
	h.tick()
	h.tick() // circuit 0->2 up
	start := h.now
	h.r.Deliver(0, mkFlit(2, 0, 3)) // different output: mismatch
	for len(h.sent) < 2 {
		h.tick()
	}
	if got := h.lastSent(t).cycle - start; got != 2 {
		t.Fatalf("mismatched flit took %d cycles, want 3-stage pipeline (ST at +2)", got+1)
	}
	if h.row.Sum().PCReused != 0 {
		t.Fatal("mismatch counted as reuse")
	}
}

// TestAsymmetricRadix: routers with more inputs than outputs (MECS shape)
// work.
func TestAsymmetricRadix(t *testing.T) {
	h := &harness{}
	h.cfg = &router.Config{
		NumVCs:   2,
		BufDepth: 2,
		Opts:     core.DefaultOptions(core.PseudoSB),
		Alloc:    vcalloc.New(vcalloc.Dynamic, 2, 1, 64),
		Reg:      stats.NewRegistry([]int{10}, []int{3}),
		Send: func(id, out int, f *flit.Flit) {
			h.sent = append(h.sent, sentFlit{out: out, f: f, cycle: h.now})
		},
		Credit: func(id, in, vc int) {},
	}
	h.r, h.row = router.New(0, 10, 3, h.cfg), h.cfg.Reg.Router(0)
	h.r.MarkEjection(2)
	for in := 0; in < 10; in++ {
		p := &flit.Packet{ID: uint64(in), Src: 0, Dst: 1, Size: 1}
		f := flit.Split(p)[0]
		f.VC = in % 2
		f.NextOut = 2
		h.r.Deliver(in, f)
	}
	for i := 0; i < 20; i++ {
		h.tick()
	}
	if len(h.sent) != 10 {
		t.Fatalf("delivered %d of 10 through the 10-in/3-out crossbar", len(h.sent))
	}
}

// TestSpeculativeFlagClearsOnUse: the first traversal over a revived
// circuit re-arms it as a normal circuit.
func TestSpeculativeFlagClearsOnUse(t *testing.T) {
	h := newHarness(t, core.DefaultOptions(core.PseudoSB))
	// Build and break a circuit via credit starvation, then revive it.
	for i := 0; i < 16; i++ {
		h.r.Deliver(0, mkFlit(uint64(i), 0, 2))
		for len(h.sent) != i+1 && h.now < 500 {
			h.tick()
		}
	}
	for i := 0; i < 3; i++ {
		h.tick()
	}
	if _, valid := h.r.PCValid(0); valid {
		t.Fatal("circuit should be credit-terminated")
	}
	for vc := 0; vc < 4; vc++ {
		h.r.DeliverCredit(2, vc)
	}
	h.tick() // speculation revives
	if _, valid := h.r.PCValid(0); !valid {
		t.Fatal("speculation did not revive")
	}
	specReuse := h.row.Sum().SpecReused
	h.r.Deliver(0, mkFlit(99, 0, 2))
	h.tick()
	h.tick()
	if h.row.Sum().SpecReused != specReuse+1 {
		t.Fatalf("speculative reuse not counted: %d -> %d", specReuse, h.row.Sum().SpecReused)
	}
}

// TestInvariantCheckerCatchesDoubleDelivery: two flits on one input port in
// one cycle violate link bandwidth and must panic.
func TestInvariantCheckerCatchesDoubleDelivery(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double delivery accepted")
		}
	}()
	h := newHarness(t, core.DefaultOptions(core.Baseline))
	h.r.Deliver(0, mkFlit(1, 0, 2))
	h.r.Deliver(0, mkFlit(2, 1, 3))
}

// TestCheckInvariantsCatchesEachDesync corrupts, one at a time, a record that
// CheckInvariants compares with a different one — the occupancy index with
// the buffers, the VA mask with the active lanes' output VCs, output-VC
// ownership with the lanes that claim it, the credit range, a flit's express
// state with its being buffered — on a router holding a packet mid-flight,
// and expects the panic to name what it found.
func TestCheckInvariantsCatchesEachDesync(t *testing.T) {
	for _, c := range []struct {
		want    string
		corrupt func(ls router.Records, m int, f *flit.Flit) // m: the owned output lane
	}{
		{"occupancy mask desynced", func(ls router.Records, m int, f *flit.Flit) { ls.Occ[0] = 0 }},
		{"VA mask desynced", func(ls router.Records, m int, f *flit.Flit) { ls.OutVC[0] = -1 }},
		{"busy=false with 1 owning lanes", func(ls router.Records, m int, f *flit.Flit) { ls.VCBusy[m] = false }},
		{"busy=true with 0 owning lanes", func(ls router.Records, m int, f *flit.Flit) { ls.Act[0] = 0 }},
		{"credit 5 out of range", func(ls router.Records, m int, f *flit.Flit) { ls.Credits[m] = 5 }},
		{"buffered mid-express", func(ls router.Records, m int, f *flit.Flit) { f.ExpressHops = 1 }},
	} {
		h := newHarness(t, core.DefaultOptions(core.Baseline))
		ls := h.r.Records()
		fs := mkPacket(1, 0, 2, 3)
		h.r.Deliver(0, fs[0])
		h.tick()
		h.r.Deliver(0, fs[1])
		h.tick() // header admitted and allocated, its ST granted; the body flit buffered behind it
		if ls.OutVC[0] < 0 || ls.BufLen[0] != 2 {
			t.Fatalf("set-up: lane (0,0) holds %d flits with output VC %d", ls.BufLen[0], ls.OutVC[0])
		}
		c.corrupt(ls, 2*4+int(ls.OutVC[0]), fs[1])
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
					t.Errorf("corrupting for %q: CheckInvariants said %q", c.want, msg)
				}
			}()
			h.r.CheckInvariants()
		}()
	}
}

// TestCreditOverflowPanics: returning more credits than the buffer holds is
// a protocol violation.
func TestCreditOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("credit overflow accepted")
		}
	}()
	h := newHarness(t, core.DefaultOptions(core.Baseline))
	h.r.DeliverCredit(2, 0)
}
