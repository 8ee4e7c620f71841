// Package obs is the opt-in flit-lifecycle event tracer: a bounded ring
// buffer of per-flit pipeline events (inject, buffer write, switch
// arbitration, switch traversal, buffer bypass, eject) with exporters to
// JSONL and to Chrome's trace_event format for chrome://tracing / Perfetto.
//
// Tracing is observation only — it never feeds back into the simulation, so
// enabling it cannot perturb results — and the ring is preallocated, so the
// recording path performs no allocations (the steady-state zero-alloc
// contract holds with tracing enabled). When the ring fills, the oldest
// events are evicted and counted in Dropped. Ring is that bound, shared by
// every probe in the repository, and WriteJSONL/ReadJSONL are their one line
// codec.
package obs

import "fmt"

// Kind identifies a flit-lifecycle pipeline event.
type Kind uint8

const (
	// Inject: a flit left its source NI onto the injection link.
	Inject Kind = iota
	// BufWrite: a flit was written into an input VC buffer (BW stage).
	BufWrite
	// SAGrant: switch arbitration granted the crossbar to a flit for next
	// cycle.
	SAGrant
	// Traverse: a flit crossed the crossbar (ST stage).
	Traverse
	// Bypass: a flit crossed the crossbar directly from the link, skipping
	// the buffer write (pseudo-circuit buffer bypassing).
	Bypass
	// Eject: a flit reached its destination NI.
	Eject
	// LinkDown: a scheduled fault disabled a router's direction link. Fault
	// events carry no flit identity: Packet is 0 and Seq/Src/Dst/In/VC are -1;
	// Loc is the router and Out the failed port.
	LinkDown
	// LinkUp: a scheduled fault re-enabled a direction link.
	LinkUp
	// RouterDown: a scheduled fault disabled a whole router (Out is -1).
	RouterDown
	// RouterUp: a scheduled fault re-enabled a router.
	RouterUp
	// Drop: a packet was killed by a fault (purged, credits replenished).
	// Recorded once per packet against its head flit at the source NI.
	Drop

	numKinds
)

var kindNames = [numKinds]string{
	"inject", "bw", "sa", "st", "bypass", "eject",
	"link-down", "link-up", "router-down", "router-up", "drop",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// KindByName resolves an exported event name back to its Kind.
func KindByName(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// MarshalText writes the kind as its exported event name.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText reads an exported event name, refusing an unknown one.
func (k *Kind) UnmarshalText(b []byte) error {
	got, ok := KindByName(string(b))
	if !ok {
		return fmt.Errorf("unknown event %q", b)
	}
	*k = got
	return nil
}

// Event is one recorded lifecycle event. Loc is the router ID for router
// events (BufWrite, SAGrant, Traverse, Bypass) and the terminal node for NI
// events (Inject, Eject). Fields that do not apply carry -1. The tags are
// its JSONL wire form: every field is always present, so the schema is
// strict and validators can reject unknown fields.
type Event struct {
	Cycle  int64  `json:"cycle"`
	Kind   Kind   `json:"ev"`
	Packet uint64 `json:"pkt"`
	Seq    int32  `json:"seq"` // flit index within its packet
	Src    int32  `json:"src"` // packet source node
	Dst    int32  `json:"dst"` // packet destination node
	Loc    int32  `json:"at"`  // router ID, or terminal node for Inject/Eject
	In     int32  `json:"in"`  // input port at Loc, -1 for NI events
	VC     int32  `json:"vc"`  // virtual channel on the input side
	Out    int32  `json:"out"` // output port the flit is heading to, -1 when unknown
}

// Tracer is a bounded ring of Events. A nil *Tracer is the valid "disabled"
// value; callers guard recording sites with a nil check so the disabled path
// costs nothing. One simulation owns one tracer; it is not safe for
// concurrent use.
type Tracer struct{ ring Ring[Event] }

// NewTracer returns a tracer retaining up to capacity events.
func NewTracer(capacity int) *Tracer { return &Tracer{ring: NewRing[Event](capacity)} }

// Record appends one event, evicting the oldest when the ring is full.
func (t *Tracer) Record(ev Event) { t.ring.Push(ev) }

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.ring.Len()
}

// Dropped returns how many events were evicted by the ring bound.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.Dropped()
}

// Events returns the retained events in recording order (a copy; safe to
// keep). Reporting-path only: it allocates.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.ring.Values()
}
