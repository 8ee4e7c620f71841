package obs

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

func TestKindNamesRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Errorf("KindByName(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := KindByName("bogus"); ok {
		t.Error("KindByName accepted an unknown name")
	}
	if Kind(200).String() != "?" {
		t.Error("out-of-range Kind must stringify as ?")
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Error("nil tracer accessors must be zero")
	}
}

func TestNewTracerRejectsBadCapacity(t *testing.T) {
	for _, c := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTracer(%d) did not panic", c)
				}
			}()
			NewTracer(c)
		}()
	}
}

// The ring must keep the newest events, count evictions, and report retained
// events in recording order across the wrap point.
func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Cycle: int64(i), Kind: Traverse})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Errorf("Dropped = %d, want 6", tr.Dropped())
	}
	for i, ev := range tr.Events() {
		if want := int64(6 + i); ev.Cycle != want {
			t.Errorf("event %d cycle = %d, want %d", i, ev.Cycle, want)
		}
	}
}

// demoTracer records one event of each kind, in cycle order, as a pipeline
// would: inject, buffer write, SA grant, traverse, a bypassed hop, eject.
func demoTracer() *Tracer {
	tr := NewTracer(16)
	tr.Record(Event{Cycle: 0, Kind: Inject, Packet: 7, Seq: 0, Src: 1, Dst: 6, Loc: 1, In: -1, VC: 0, Out: 2})
	tr.Record(Event{Cycle: 1, Kind: BufWrite, Packet: 7, Seq: 0, Src: 1, Dst: 6, Loc: 1, In: 4, VC: 0, Out: 2})
	tr.Record(Event{Cycle: 1, Kind: SAGrant, Packet: 7, Seq: 0, Src: 1, Dst: 6, Loc: 1, In: 4, VC: 0, Out: 2})
	tr.Record(Event{Cycle: 2, Kind: Traverse, Packet: 7, Seq: 0, Src: 1, Dst: 6, Loc: 1, In: 4, VC: 0, Out: 2})
	tr.Record(Event{Cycle: 3, Kind: Bypass, Packet: 7, Seq: 0, Src: 1, Dst: 6, Loc: 2, In: 0, VC: 0, Out: 4})
	tr.Record(Event{Cycle: 4, Kind: Eject, Packet: 7, Seq: 0, Src: 1, Dst: 6, Loc: 6, In: -1, VC: 0, Out: -1})
	return tr
}

func TestEventsJSONLRoundTrip(t *testing.T) {
	tr := demoTracer()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateEventsJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("round trip invalid: %v\n%s", err, buf.String())
	}
	if n != tr.Len() {
		t.Errorf("validated %d events, tracer holds %d", n, tr.Len())
	}
}

func TestValidateEventsRejects(t *testing.T) {
	cases := []struct {
		name, input, wantErr string
	}{
		{"empty", "", "empty"},
		{"unknown event", `{"cycle":0,"ev":"warp","pkt":0,"seq":0,"src":0,"dst":0,"at":0,"in":0,"vc":0,"out":0}`, "unknown event"},
		{"unknown field", `{"cycle":0,"ev":"st","bogus":1,"pkt":0,"seq":0,"src":0,"dst":0,"at":0,"in":0,"vc":0,"out":0}`, "bogus"},
		{"no event name", `{"cycle":0,"pkt":0,"seq":0,"src":0,"dst":0,"at":0,"in":0,"vc":0,"out":0}`, "unknown event"},
		{"null event name", `{"cycle":0,"ev":null,"pkt":0,"seq":0,"src":0,"dst":0,"at":0,"in":0,"vc":0,"out":0}`, "unknown event"},
		{"numeric event", `{"cycle":0,"ev":3,"pkt":0,"seq":0,"src":0,"dst":0,"at":0,"in":0,"vc":0,"out":0}`, "event line 1"},
		{"negative cycle", `{"cycle":-1,"ev":"st","pkt":0,"seq":0,"src":0,"dst":0,"at":0,"in":0,"vc":0,"out":0}`, "negative cycle"},
		{
			"cycle regression",
			`{"cycle":5,"ev":"st","pkt":0,"seq":0,"src":0,"dst":0,"at":0,"in":0,"vc":0,"out":0}` + "\n" +
				`{"cycle":4,"ev":"st","pkt":0,"seq":0,"src":0,"dst":0,"at":0,"in":0,"vc":0,"out":0}`,
			"before previous",
		},
	}
	for _, c := range cases {
		if _, err := ValidateEventsJSONL(strings.NewReader(c.input)); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr := demoTracer()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("chrome trace invalid: %v\n%s", err, buf.String())
	}
	// 6 events + one process_name metadata per distinct pid: router 1,
	// router 2, ni 1, ni 6.
	if want := tr.Len() + 4; n != want {
		t.Errorf("trace events = %d, want %d", n, want)
	}
	out := buf.String()
	// NI lanes must not collide with router lanes: node 1 injects and
	// router 1 traverses, so both pids appear.
	if !strings.Contains(out, `"name":"router 1"`) || !strings.Contains(out, `"name":"ni 1"`) {
		t.Errorf("missing process names:\n%s", out)
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := []struct {
		name, input, wantErr string
	}{
		{"not json", "nope", "chrome trace"},
		{"no events", `{"traceEvents":[]}`, "no traceEvents"},
		{"missing required", `{"traceEvents":[{"ph":"X","ts":1,"pid":0}]}`, "missing required"},
		{"missing ts", `{"traceEvents":[{"name":"a","ph":"X","pid":0}]}`, "missing ts"},
	}
	for _, c := range cases {
		if _, err := ValidateChromeTrace(strings.NewReader(c.input)); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}
	// Metadata events carry no ts and must pass.
	ok := `{"traceEvents":[{"name":"process_name","ph":"M","pid":0}]}`
	if _, err := ValidateChromeTrace(strings.NewReader(ok)); err != nil {
		t.Errorf("metadata-only trace rejected: %v", err)
	}
}

// Recording into a warm ring must not allocate — the tracer is part of the
// steady-state zero-alloc contract.
func TestRecordZeroAlloc(t *testing.T) {
	tr := NewTracer(64)
	for i := 0; i < 128; i++ { // fill past the wrap point
		tr.Record(Event{Cycle: int64(i)})
	}
	avg := testing.AllocsPerRun(100, func() {
		tr.Record(Event{Cycle: 1000})
	})
	if avg != 0 {
		t.Errorf("Record allocates %.2f per call, want 0", avg)
	}
}

// failWriter refuses every write, as a full disk or a closed pipe does.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestExportsReportErrors: a writer that fails, a reader that fails and an
// event that does not encode each come back as the export's error.
func TestExportsReportErrors(t *testing.T) {
	if err := WriteJSONL(failWriter{}, make([]Event, 200)); err == nil {
		t.Error("WriteJSONL past a buffer into a failing writer: no error")
	}
	if err := demoTracer().WriteChromeTrace(failWriter{}); err == nil {
		t.Error("WriteChromeTrace into a failing writer: no error")
	}
	if _, err := ReadJSONL(iotest.ErrReader(errors.New("read failed")), "events",
		func([]byte) error { return nil }); err == nil || !strings.Contains(err.Error(), "read failed") {
		t.Errorf("ReadJSONL from a failing reader: %v", err)
	}
	cw := NewChromeWriter(io.Discard)
	cw.Event(ChromeEvent{Name: "x", Args: func() {}})
	cw.Event(ChromeEvent{Name: "y"})
	if err := cw.Close(); err == nil || !strings.Contains(err.Error(), "func") {
		t.Errorf("an event that does not encode: Close returned %v", err)
	}
}
