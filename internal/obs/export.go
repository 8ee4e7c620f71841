package obs

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSONL writes vs as JSON Lines, one object per line, in order. It is
// the one line encoder of every JSONL export: events, spans and metrics.
func WriteJSONL[T any](w io.Writer, vs []T) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL is the one strict line reader under every JSONL validator. It
// hands each non-blank line to line, prefixes an error from it with
// "<what> line N: " (N counts from 1), and refuses a stream with no lines.
// It returns the number of lines read.
func ReadJSONL(r io.Reader, what string, line func(data []byte) error) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		data := bytes.TrimSpace(sc.Bytes())
		if len(data) == 0 {
			continue
		}
		n++
		if err := line(data); err != nil {
			return n, fmt.Errorf("%s line %d: %w", what, n, err)
		}
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	if n == 0 {
		return 0, fmt.Errorf("%s: empty stream", what)
	}
	return n, nil
}

// Strict decodes one JSON value from data into v, refusing fields v does not
// declare.
func Strict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// WriteJSONL writes the tracer's retained events as one JSON object per
// line, in recording order.
func (t *Tracer) WriteJSONL(w io.Writer) error { return WriteJSONL(w, t.Events()) }

// ValidateEventsJSONL checks a lifecycle-event JSONL stream against the
// schema: every line must strictly decode as an Event with a known event
// name, and cycles must be non-negative and non-decreasing (events are
// recorded in simulation order). It returns the number of events validated.
func ValidateEventsJSONL(r io.Reader) (int, error) {
	last := int64(-1)
	return ReadJSONL(r, "event", func(data []byte) error {
		ev := Event{Kind: numKinds} // stays out of range when "ev" is absent or null
		if err := Strict(data, &ev); err != nil {
			return err
		}
		if ev.Kind == numKinds {
			return fmt.Errorf("unknown event: no \"ev\" name")
		}
		if ev.Cycle < 0 {
			return fmt.Errorf("negative cycle %d", ev.Cycle)
		}
		if ev.Cycle < last {
			return fmt.Errorf("cycle %d before previous %d", ev.Cycle, last)
		}
		last = ev.Cycle
		return nil
	})
}

// Chrome trace_event export. One simulated cycle maps to one microsecond of
// trace time. Router events become complete ("X") slices one cycle long on
// pid = router ID, tid = input port; NI events become thread-scoped instants
// on pid = niPidBase + node. Metadata events name each process so
// chrome://tracing and Perfetto render "router N" / "ni N" lanes.
const niPidBase = 1 << 20

type chromeArgs struct {
	Pkt uint64 `json:"pkt"`
	Seq int32  `json:"seq"`
	Src int32  `json:"src"`
	Dst int32  `json:"dst"`
	VC  int32  `json:"vc"`
	Out int32  `json:"out"`
}

// ChromeEvent is one trace_event entry: a slice (ph "X"), instant ("i") or
// metadata ("M") record. It is the shared wire shape for every exporter that
// wants its spans on the same chrome://tracing / Perfetto timeline as the
// flit-lifecycle traces (the service layer's job spans reuse it).
type ChromeEvent struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	Ts   int64       `json:"ts"`
	Dur  int64       `json:"dur,omitempty"`
	Pid  int64       `json:"pid"`
	Tid  int64       `json:"tid"`
	S    string      `json:"s,omitempty"`
	Args interface{} `json:"args,omitempty"`
}

// ChromeWriter streams ChromeEvents as trace_event JSON (the object form:
// {"traceEvents": [...]}). NewChromeWriter writes the header; Event appends
// entries; Close terminates the array, flushes and reports the stream's
// error: an event that did not encode, else the first failed write, after
// which bufio.Writer makes every later write a no-op. The writer dedups
// process_name metadata so every exporter sharing the file names its lanes
// exactly once.
type ChromeWriter struct {
	bw    *bufio.Writer
	err   error // the first event that did not encode
	first bool
	named map[int64]bool
}

// NewChromeWriter starts a trace_event stream on w.
func NewChromeWriter(w io.Writer) *ChromeWriter {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	return &ChromeWriter{bw: bw, first: true, named: map[int64]bool{}}
}

// Event appends one trace entry.
func (cw *ChromeWriter) Event(ev ChromeEvent) {
	data, err := json.Marshal(ev)
	if err != nil {
		cw.err = cmp.Or(cw.err, err)
		return
	}
	if !cw.first {
		cw.bw.WriteByte(',')
	}
	cw.first = false
	cw.bw.Write(data)
}

// NameProcess emits a process_name metadata entry for pid once; repeated
// calls for the same pid are no-ops.
func (cw *ChromeWriter) NameProcess(pid int64, name string) {
	if cw.named[pid] {
		return
	}
	cw.named[pid] = true
	cw.Event(ChromeEvent{
		Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
		Args: map[string]string{"name": name},
	})
}

// Close terminates the traceEvents array, flushes, and returns the
// stream's error.
func (cw *ChromeWriter) Close() error {
	cw.bw.WriteString("]}\n")
	return cmp.Or(cw.err, cw.bw.Flush())
}

// WriteChromeTrace writes the retained events in Chrome trace_event JSON
// (the object form: {"traceEvents": [...]}), loadable by chrome://tracing
// and ui.perfetto.dev.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	cw := NewChromeWriter(w)
	for _, ev := range t.Events() {
		pid := int64(ev.Loc)
		procName := fmt.Sprintf("router %d", ev.Loc)
		tid := int64(ev.In)
		ph, dur, scope := "X", int64(1), ""
		switch ev.Kind {
		case Inject, Eject, Drop:
			pid = niPidBase + int64(ev.Loc)
			procName = fmt.Sprintf("ni %d", ev.Loc)
			tid = int64(ev.VC)
			ph, dur, scope = "i", 0, "t"
		case SAGrant:
			ph, dur, scope = "i", 0, "t"
		case LinkDown, LinkUp, RouterDown, RouterUp:
			// Process-scoped instants on the faulted router's lane.
			ph, dur, scope = "i", 0, "p"
		}
		if tid < 0 {
			tid = 0
		}
		cw.NameProcess(pid, procName)
		name := fmt.Sprintf("%s p%d.%d", ev.Kind, ev.Packet, ev.Seq)
		switch ev.Kind {
		case LinkDown, LinkUp:
			name = fmt.Sprintf("%s out%d", ev.Kind, ev.Out)
		case RouterDown, RouterUp:
			name = ev.Kind.String()
		}
		cw.Event(ChromeEvent{
			Name: name,
			Ph:   ph, Ts: ev.Cycle, Dur: dur, Pid: pid, Tid: tid, S: scope,
			Args: chromeArgs{Pkt: ev.Packet, Seq: ev.Seq, Src: ev.Src, Dst: ev.Dst, VC: ev.VC, Out: ev.Out},
		})
	}
	return cw.Close()
}

// ValidateChromeTrace checks that a Chrome trace decodes as the trace_event
// object form with a non-empty traceEvents array whose entries carry the
// required name/ph/ts/pid fields. It returns the number of trace events.
func ValidateChromeTrace(r io.Reader) (int, error) {
	var doc struct {
		TraceEvents []struct {
			Name *string  `json:"name"`
			Ph   *string  `json:"ph"`
			Ts   *float64 `json:"ts"`
			Pid  *float64 `json:"pid"`
		} `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return 0, fmt.Errorf("chrome trace: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		return 0, fmt.Errorf("chrome trace: no traceEvents")
	}
	for i, ev := range doc.TraceEvents {
		if ev.Name == nil || ev.Ph == nil || ev.Pid == nil {
			return i, fmt.Errorf("chrome trace: event %d missing required field", i)
		}
		if *ev.Ph != "M" && ev.Ts == nil {
			return i, fmt.Errorf("chrome trace: event %d missing ts", i)
		}
	}
	return len(doc.TraceEvents), nil
}
