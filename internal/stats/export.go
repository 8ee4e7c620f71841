package stats

import (
	"encoding/json"
	"fmt"
	"io"

	"pseudocircuit/internal/obs"
)

// Metrics JSONL export: one self-describing JSON object per line, typed by a
// "type" field. Three line types exist:
//
//	{"type":"router", ...}  one per router (Registry row)
//	{"type":"window", ...}  one per closed time-series window (Series sample)
//	{"type":"global", ...}  exactly one: the Network counters and the rows' sum
//
// The schema is strict — validators reject unknown fields — so downstream
// tooling can rely on it; the global line lets any consumer cross-check that
// per-router counters sum to the network totals.

// PortMetrics is the serialized form of PortStats.
type PortMetrics struct {
	Port         int    `json:"port"`
	Traversals   uint64 `json:"traversals"`
	PCReused     uint64 `json:"pc_reused"`
	Bypassed     uint64 `json:"bypassed"`
	BufHighWater int    `json:"buf_hwm"`
	CreditStalls uint64 `json:"credit_stalls"`
}

// RouterMetrics is the serialized form of a RouterStats row.
type RouterMetrics struct {
	Type         string        `json:"type"` // "router"
	Router       int           `json:"router"`
	SAGrants     uint64        `json:"sa_grants"`
	PCCreated    uint64        `json:"pc_created"`
	PCReused     uint64        `json:"pc_reused"`
	PCTerminated uint64        `json:"pc_terminated"`
	PCSpeculated uint64        `json:"pc_speculated"`
	SpecReused   uint64        `json:"spec_reused"`
	Traversals   uint64        `json:"traversals"`
	Bypassed     uint64        `json:"bypassed"`
	HeadTravs    uint64        `json:"head_traversals"`
	HeadReused   uint64        `json:"head_reused"`
	HeadBypassed uint64        `json:"head_bypassed"`
	Ports        []PortMetrics `json:"ports"`
	OutSends     []uint64      `json:"out_sends"`
}

// WindowMetrics is the serialized form of a Series sample.
type WindowMetrics struct {
	Type string `json:"type"` // "window"
	Sample
}

// GlobalMetrics is the serialized form of the network-wide counters: the
// Network struct's and the Registry's Totals.
type GlobalMetrics struct {
	Type             string  `json:"type"` // "global"
	MeasuredFrom     int64   `json:"measured_from"`
	MeasuredTo       int64   `json:"measured_to"`
	PacketsInjected  uint64  `json:"packets_injected"`
	PacketsDelivered uint64  `json:"packets_delivered"`
	FlitsDelivered   uint64  `json:"flits_delivered"`
	SAGrants         uint64  `json:"sa_grants"`
	PCCreated        uint64  `json:"pc_created"`
	PCReused         uint64  `json:"pc_reused"`
	PCTerminated     uint64  `json:"pc_terminated"`
	PCSpeculated     uint64  `json:"pc_speculated"`
	SpecReused       uint64  `json:"spec_reused"`
	Traversals       uint64  `json:"traversals"`
	Bypassed         uint64  `json:"bypassed"`
	AvgLatency       float64 `json:"avg_latency"`

	// Fault accounting; zero on fault-free runs.
	FaultEvents       uint64 `json:"fault_events"`
	PacketsDropped    uint64 `json:"packets_dropped"`
	FlitsDropped      uint64 `json:"flits_dropped"`
	PacketsRerouted   uint64 `json:"packets_rerouted"`
	PCFaultTerminated uint64 `json:"pc_fault_terminated"`

	// Reliability accounting; zero when reliable delivery is off.
	PacketsRetransmitted uint64 `json:"packets_retransmitted"`
	AcksSent             uint64 `json:"acks_sent"`
	AcksReceived         uint64 `json:"acks_received"`
	DuplicatesDropped    uint64 `json:"duplicates_dropped"`
	DeliveryFailed       uint64 `json:"delivery_failed"`
}

// WriteMetricsJSONL writes the run's metrics as JSONL: router lines from reg,
// window lines from series (nil skips them), then the global line from st
// (nil skips it) and reg's totals.
func WriteMetricsJSONL(w io.Writer, reg *Registry, series *Series, st *Network) error {
	var lines []any
	for _, r := range reg.Routers() {
		t := r.Sum()
		line := RouterMetrics{
			Type:         "router",
			Router:       r.ID,
			SAGrants:     r.SAGrants,
			PCCreated:    r.PCCreated,
			PCReused:     t.PCReused,
			PCTerminated: r.PCTerminated,
			PCSpeculated: r.PCSpeculated,
			SpecReused:   r.SpecReused,
			Traversals:   t.Traversals,
			Bypassed:     t.Bypassed,
			HeadTravs:    r.HeadTravs,
			HeadReused:   r.HeadReused,
			HeadBypassed: r.HeadBypassed,
			Ports:        make([]PortMetrics, len(r.In)),
			OutSends:     r.OutSends,
		}
		for i := range r.In {
			p := &r.In[i]
			line.Ports[i] = PortMetrics{
				Port:         i,
				Traversals:   p.Traversals,
				PCReused:     p.PCReused,
				Bypassed:     p.Bypassed,
				BufHighWater: p.BufHighWater,
				CreditStalls: p.CreditStalls,
			}
		}
		lines = append(lines, line)
	}
	if series != nil {
		for _, s := range series.Samples() {
			lines = append(lines, WindowMetrics{Type: "window", Sample: s})
		}
	}
	if st != nil {
		t := reg.Totals()
		lines = append(lines, GlobalMetrics{
			Type:              "global",
			MeasuredFrom:      int64(st.MeasuredFrom),
			MeasuredTo:        int64(st.MeasuredTo),
			PacketsInjected:   st.PacketsInjected,
			PacketsDelivered:  st.PacketsDelivered,
			FlitsDelivered:    st.FlitsDelivered,
			SAGrants:          t.SAGrants,
			PCCreated:         t.PCCreated,
			PCReused:          t.PCReused,
			PCTerminated:      t.PCTerminated,
			PCSpeculated:      t.PCSpeculated,
			SpecReused:        t.SpecReused,
			Traversals:        t.Traversals,
			Bypassed:          t.Bypassed,
			AvgLatency:        st.AvgLatency(),
			FaultEvents:       st.FaultEvents,
			PacketsDropped:    st.PacketsDropped,
			FlitsDropped:      st.FlitsDropped,
			PacketsRerouted:   st.PacketsRerouted,
			PCFaultTerminated: st.PCFaultTerminated,

			PacketsRetransmitted: st.PacketsRetransmitted,
			AcksSent:             st.AcksSent,
			AcksReceived:         st.AcksReceived,
			DuplicatesDropped:    st.DuplicatesDropped,
			DeliveryFailed:       st.DeliveryFailed,
		})
	}
	return obs.WriteJSONL(w, lines)
}

// ValidateMetricsJSONL checks a metrics JSONL stream against the schema:
// every line must strictly decode as one of the three line types, and when
// both router lines and a global line are present, the per-router
// pseudo-circuit and traversal counters must sum exactly to the global
// values. It returns the number of lines validated.
func ValidateMetricsJSONL(r io.Reader) (int, error) {
	var (
		routers, globals              int
		sumReused, sumTrav, sumGrants uint64
		global                        GlobalMetrics
		seen                          = map[int]bool{}
	)
	lines, err := obs.ReadJSONL(r, "metrics", func(data []byte) error {
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(data, &head); err != nil {
			return err
		}
		switch head.Type {
		case "router":
			var rm RouterMetrics
			if err := obs.Strict(data, &rm); err != nil {
				return fmt.Errorf("router: %w", err)
			}
			if rm.Router < 0 {
				return fmt.Errorf("negative router id %d", rm.Router)
			}
			if seen[rm.Router] {
				return fmt.Errorf("duplicate router %d", rm.Router)
			}
			seen[rm.Router] = true
			var portReuse uint64
			for _, p := range rm.Ports {
				portReuse += p.PCReused
			}
			if portReuse != rm.PCReused {
				return fmt.Errorf("router %d port pc_reused sum %d != router pc_reused %d", rm.Router, portReuse, rm.PCReused)
			}
			routers++
			sumReused += rm.PCReused
			sumTrav += rm.Traversals
			sumGrants += rm.SAGrants
		case "window":
			var wm WindowMetrics
			if err := obs.Strict(data, &wm); err != nil {
				return fmt.Errorf("window: %w", err)
			}
			if wm.To <= wm.From {
				return fmt.Errorf("empty window [%d,%d)", wm.From, wm.To)
			}
		case "global":
			if err := obs.Strict(data, &global); err != nil {
				return fmt.Errorf("global: %w", err)
			}
			globals++
		default:
			return fmt.Errorf("unknown type %q", head.Type)
		}
		return nil
	})
	if err != nil {
		return lines, err
	}
	if globals > 1 {
		return lines, fmt.Errorf("metrics: %d global lines (want at most 1)", globals)
	}
	if routers > 0 && globals == 1 {
		if sumReused != global.PCReused {
			return lines, fmt.Errorf("metrics: per-router pc_reused sum %d != global %d", sumReused, global.PCReused)
		}
		if sumTrav != global.Traversals {
			return lines, fmt.Errorf("metrics: per-router traversals sum %d != global %d", sumTrav, global.Traversals)
		}
		if sumGrants != global.SAGrants {
			return lines, fmt.Errorf("metrics: per-router sa_grants sum %d != global %d", sumGrants, global.SAGrants)
		}
	}
	return lines, nil
}
