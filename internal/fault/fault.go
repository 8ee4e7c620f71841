// Package fault defines deterministic fault schedules for the cycle kernel:
// cycle-stamped link-down/link-up and router-down/router-up events declared
// up front on the experiment spec, applied inside the kernel's main phase so
// faulted runs stay bit-identical between the naive and the active-set
// schedule.
//
// A schedule is data, not behavior: validation happens once at the spec
// boundary (and again defensively at network build time), and the runtime
// State replays the canonically sorted event list with an alloc-free cursor
// so the steady-state hot path stays zero-alloc.
package fault

import (
	"fmt"
	"sort"
)

// Kind enumerates fault event kinds.
type Kind int

const (
	// LinkDown disables a router's outgoing direction link (and the
	// corresponding reverse path is unaffected: links are unidirectional).
	LinkDown Kind = iota
	// LinkUp re-enables a previously downed link.
	LinkUp
	// RouterDown disables a whole router: all its links, its terminals'
	// injection, and delivery of packets homed at it.
	RouterDown
	// RouterUp re-enables a previously downed router.
	RouterUp
	numKinds
)

var kindNames = [numKinds]string{"link-down", "link-up", "router-down", "router-up"}

// String returns the canonical spec name of the kind.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// KindByName resolves a canonical kind name; ok is false for unknown names.
func KindByName(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// IsDown reports whether the kind takes a target down.
func (k Kind) IsDown() bool { return k == LinkDown || k == RouterDown }

// IsLink reports whether the kind targets a link rather than a router.
func (k Kind) IsLink() bool { return k == LinkDown || k == LinkUp }

// Event is one scheduled fault transition. Link events identify the link by
// its source router and direction output port (0..3: E, W, N, S); router
// events leave Port zero.
type Event struct {
	Cycle  int64
	Kind   Kind
	Router int
	Port   int
}

// Policy selects what happens to in-flight flits whose committed path
// crosses a failing link.
type Policy int

const (
	// Drop kills the whole packet (all flits purged, credits replenished,
	// the drop accounted in stats). The default.
	Drop Policy = iota
	// Reroute salvages packets whose head flit is still buffered at the
	// failure point by re-running route computation around the dead link;
	// packets already partially forwarded are dropped as under Drop.
	Reroute
)

// String returns the canonical spec name of the policy.
func (p Policy) String() string {
	if p == Reroute {
		return "reroute"
	}
	return "drop"
}

// PolicyByName resolves a policy name; empty selects Drop.
func PolicyByName(s string) (Policy, bool) {
	switch s {
	case "", "drop":
		return Drop, true
	case "reroute":
		return Reroute, true
	}
	return Drop, false
}

// Schedule is a validated, canonically ordered fault schedule.
type Schedule struct {
	Policy Policy
	Events []Event
	// AllowOpen permits schedules whose final event for a target is a down
	// with no later up: the target stays down forever (a permanent fault).
	// Spec-declared schedules keep the closed-schedule guarantee; expanded
	// churn processes set AllowOpen because a chain may still be down when
	// the horizon ends. The kernel distinguishes permanent from transient
	// downs (State.AnyTransientDown) so its termination watchdogs keep
	// working under open schedules.
	AllowOpen bool
}

// MaxEvents bounds schedule size at the service boundary.
const MaxEvents = 4096

// target identifies a fault target for alternation checking: router faults
// use port -1 so they never collide with link faults.
type target struct {
	router, port int
}

func (e Event) target() target {
	if e.Kind.IsLink() {
		return target{e.Router, e.Port}
	}
	return target{e.Router, -1}
}

// Canon sorts events into canonical order: by cycle, then router, then port,
// then kind. Two schedules that differ only in event order canonicalize (and
// therefore hash) identically.
func (s *Schedule) Canon() {
	sort.SliceStable(s.Events, func(i, j int) bool {
		a, b := s.Events[i], s.Events[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Router != b.Router {
			return a.Router < b.Router
		}
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		return a.Kind < b.Kind
	})
}

// Topo is the slice of topology faults are declared on and answered over.
// *topology.Mesh satisfies it; topologies without a wired-port notion are
// rejected before validation reaches here.
type Topo interface {
	Routers() int
	Nodes() int
	// Dims returns the router grid dimensions (mesh-like topologies).
	Dims() (kx, ky int)
	// Coord returns router r's grid coordinates.
	Coord(r int) (x, y int)
	// NodeRouter returns the router terminal node attaches to.
	NodeRouter(node int) (router, inPort, outPort int)
}

// neighbor returns the router at the far end of direction port out (0..3:
// E, W, N, S) of router r, or -1 when the port is off the grid edge.
func neighbor(t Topo, r, out int) int {
	kx, ky := t.Dims()
	x, y := t.Coord(r)
	switch out {
	case 0: // E
		x++
	case 1: // W
		x--
	case 2: // N
		y--
	case 3: // S
		y++
	}
	if x < 0 || x >= kx || y < 0 || y >= ky {
		return -1
	}
	return y*kx + x
}

// Validate canonicalizes the schedule in place and checks every structural
// rule the kernel depends on:
//
//   - every event cycle in [0, horizon)
//   - router IDs on the grid; link ports 0..3 and wired
//   - per target, events strictly alternate down → up → down … starting
//     with down, at strictly increasing cycles (no duplicates, no same-cycle
//     down+up pair)
//   - unless AllowOpen is set, every down is matched by a later up, so no
//     fault is permanent and Drain is guaranteed to terminate
//   - at most MaxEvents events
//
// The empty schedule is valid and equivalent to no schedule at all.
func (s *Schedule) Validate(t Topo, horizon int64) error {
	if len(s.Events) > MaxEvents {
		return fmt.Errorf("fault: %d events exceeds limit %d", len(s.Events), MaxEvents)
	}
	s.Canon()
	routers := t.Routers()
	for _, e := range s.Events {
		if e.Kind < 0 || e.Kind >= numKinds {
			return fmt.Errorf("fault: unknown event kind %d", int(e.Kind))
		}
		if e.Cycle < 0 || e.Cycle >= horizon {
			return fmt.Errorf("fault: event cycle %d outside [0, %d)", e.Cycle, horizon)
		}
		if e.Router < 0 || e.Router >= routers {
			return fmt.Errorf("fault: router %d out of range [0, %d)", e.Router, routers)
		}
		if e.Kind.IsLink() {
			if e.Port < 0 || e.Port > 3 {
				return fmt.Errorf("fault: link port %d outside direction ports 0..3", e.Port)
			}
			if neighbor(t, e.Router, e.Port) < 0 {
				return fmt.Errorf("fault: router %d port %d is off the grid edge", e.Router, e.Port)
			}
		} else if e.Port != 0 {
			return fmt.Errorf("fault: router event carries nonzero port %d", e.Port)
		}
	}
	// Per-target alternation at strictly increasing cycles, closed by an up.
	type phase struct {
		down  bool
		cycle int64
	}
	open := make(map[target]phase)
	for _, e := range s.Events {
		tg := e.target()
		p, seen := open[tg]
		if seen && e.Cycle <= p.cycle {
			return fmt.Errorf("fault: events for router %d port %d at non-increasing cycles (%d then %d)",
				tg.router, tg.port, p.cycle, e.Cycle)
		}
		if e.Kind.IsDown() {
			if seen && p.down {
				return fmt.Errorf("fault: router %d port %d taken down twice without an up", tg.router, tg.port)
			}
			open[tg] = phase{down: true, cycle: e.Cycle}
		} else {
			if !seen || !p.down {
				return fmt.Errorf("fault: up event for router %d port %d without a preceding down", tg.router, tg.port)
			}
			open[tg] = phase{down: false, cycle: e.Cycle}
		}
	}
	if !s.AllowOpen {
		for tg, p := range open {
			if p.down {
				return fmt.Errorf("fault: router %d port %d is taken down at cycle %d and never restored", tg.router, tg.port, p.cycle)
			}
		}
	}
	return nil
}

// State replays a validated schedule at runtime, and is the one fault view
// every layer asks: the kernel, fault-aware routing, the routers and the EVC
// policy. The kernel mutates it in a cycle's main phase only, strictly before
// any router ticks, so every query answers the same all through a cycle.
type State struct {
	policy     Policy
	events     []Event
	next       int
	linkDown   []bool // indexed router*4 + port
	routerDown []bool
	// nbr[router*4+port] is the router at the far end of direction port
	// out, or -1 when the port is unwired. A link is dead when either its
	// own down flag is set or either endpoint router is down.
	nbr []int
	// home[node] is the router terminal node attaches to.
	home []int
	// remLink/remRouter count the schedule events not yet applied for each
	// target. A down whose target has no remaining events is permanent (an
	// AllowOpen schedule left it open); every other down is transient. The
	// split keeps the kernel's termination machinery honest: watchdogs pause
	// only while a transient fault is pending recovery, and permanently dead
	// routers can be drained instead of waited on.
	remLink        []int
	remRouter      []int
	transientDowns int
}

// NewState builds runtime state for a validated schedule over t, with the
// neighbour and node→router tables its queries read.
func NewState(s Schedule, t Topo) *State {
	routers := t.Routers()
	st := &State{
		policy:     s.Policy,
		events:     s.Events,
		linkDown:   make([]bool, routers*4),
		routerDown: make([]bool, routers),
		nbr:        make([]int, routers*4),
		home:       make([]int, t.Nodes()),
		remLink:    make([]int, routers*4),
		remRouter:  make([]int, routers),
	}
	for i := range st.nbr {
		st.nbr[i] = neighbor(t, i/4, i%4)
	}
	for node := range st.home {
		st.home[node], _, _ = t.NodeRouter(node)
	}
	for _, e := range s.Events {
		if e.Kind.IsLink() {
			st.remLink[e.Router*4+e.Port]++
		} else {
			st.remRouter[e.Router]++
		}
	}
	return st
}

// Policy returns the schedule's drop policy.
func (st *State) Policy() Policy { return st.policy }

// Take returns the events due at exactly cycle now and advances the cursor.
// The fast path (no event due) is a single comparison and allocates nothing;
// the returned slice aliases the schedule.
func (st *State) Take(now int64) []Event {
	if st.next >= len(st.events) || st.events[st.next].Cycle != now {
		return nil
	}
	lo := st.next
	for st.next < len(st.events) && st.events[st.next].Cycle == now {
		st.next++
	}
	return st.events[lo:st.next]
}

// AnyTransientDown reports whether any link or router is down with a
// restoring up event still pending. Permanent downs (open AllowOpen
// schedules) are excluded: nothing is coming back, so termination machinery
// — the standstill watchdog and stale sweep — must keep running rather than
// wait out a recovery that never happens. On closed schedules every down is
// transient.
func (st *State) AnyTransientDown() bool { return st.transientDowns > 0 }

// Apply folds one event into the state. Events must be applied in schedule
// order (the Take cursor guarantees this); permanence bookkeeping counts the
// events remaining per target, so a down with none remaining is permanent.
func (st *State) Apply(e Event) {
	switch e.Kind {
	case LinkDown:
		i := e.Router*4 + e.Port
		st.linkDown[i] = true
		st.remLink[i]--
		if st.remLink[i] > 0 { // an up is still to come
			st.transientDowns++
		}
	case LinkUp:
		i := e.Router*4 + e.Port
		st.linkDown[i] = false
		st.remLink[i]--
		st.transientDowns--
	case RouterDown:
		st.routerDown[e.Router] = true
		st.remRouter[e.Router]--
		if st.remRouter[e.Router] > 0 {
			st.transientDowns++
		}
	case RouterUp:
		st.routerDown[e.Router] = false
		st.remRouter[e.Router]--
		st.transientDowns--
	}
}

// Wired reports whether direction port out (0..3) of router r connects to a
// neighbour on the grid (edge ports exist but are unwired).
func (st *State) Wired(r, out int) bool { return st.nbr[r*4+out] >= 0 }

// LinkDead reports whether output port out of router r is currently unusable:
// the link itself is down, the sending router is down, or the receiving
// router is down. Ejection ports (out >= 4) are dead only with their router.
func (st *State) LinkDead(r, out int) bool {
	if st.routerDown[r] {
		return true
	}
	if out >= 4 {
		return false
	}
	i := r*4 + out
	if st.linkDown[i] {
		return true
	}
	if n := st.nbr[i]; n >= 0 && st.routerDown[n] {
		return true
	}
	return false
}

// RouterDead reports whether router r is currently down.
func (st *State) RouterDead(r int) bool { return st.routerDown[r] }

// DstDead reports whether the router terminal node attaches to is down: a
// packet addressed to it cannot be delivered.
func (st *State) DstDead(node int) bool { return st.routerDown[st.home[node]] }

// RouterPermanentlyDown reports whether router r is down with no restoring
// event left in the schedule: it will never come back. Packets sourced at a
// permanently dead router can be dropped instead of held, which is what lets
// open-schedule runs drain.
func (st *State) RouterPermanentlyDown(r int) bool {
	return st.routerDown[r] && st.remRouter[r] == 0
}
