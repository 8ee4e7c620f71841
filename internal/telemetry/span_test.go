package telemetry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"pseudocircuit/internal/obs"
)

func sampleLog() *SpanLog {
	l := NewSpanLog(16)
	base := l.base
	l.Record(Span{Name: "cache-miss", Job: "j1", Key: "abcd1234efgh5678", Scheme: "pseudo+s+b",
		Outcome: "enqueued", Start: base, End: base})
	l.Record(Span{Name: "queue-wait", Job: "j1", Key: "abcd1234efgh5678", Scheme: "pseudo+s+b",
		Outcome: "dequeued", Start: base, End: base.Add(2 * time.Millisecond)})
	l.Record(Span{Name: "run", Job: "j1", Key: "abcd1234efgh5678", Scheme: "pseudo+s+b",
		Outcome: "done", Start: base.Add(2 * time.Millisecond), End: base.Add(30 * time.Millisecond)})
	l.Record(Span{Name: "drain", Outcome: "clean", Start: base.Add(40 * time.Millisecond),
		End: base.Add(41 * time.Millisecond)})
	return l
}

func TestSpanLogRing(t *testing.T) {
	l := NewSpanLog(2)
	for i := 0; i < 5; i++ {
		l.Record(Span{Name: "run", Job: "j1"})
	}
	if l.Len() != 2 || l.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d, want 2/3", l.Len(), l.Dropped())
	}
	assertPanics(t, func() { NewSpanLog(0) })
}

func TestSpanJSONLRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLog().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateSpansJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("own export rejected: %v\n%s", err, buf.String())
	}
	if n != 4 {
		t.Fatalf("validated %d spans, want 4", n)
	}
	// The run span's duration must survive the round trip.
	var found bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var s struct {
			Span  string `json:"span"`
			DurUs int64  `json:"durUs"`
		}
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatal(err)
		}
		if s.Span == "run" {
			found = true
			if s.DurUs != 28_000 {
				t.Fatalf("run durUs = %d, want 28000", s.DurUs)
			}
		}
	}
	if !found {
		t.Fatal("run span missing from export")
	}
}

// TestSpanExportsPinned: the span log's two exports keep their bytes. The
// timestamps are offsets from the log's base, so sampleLog's are fixed.
func TestSpanExportsPinned(t *testing.T) {
	for _, c := range []struct {
		name, want string
		write      func(*SpanLog, io.Writer) error
	}{
		{"jsonl", "063c099802be8554bf2b50277a43e0fc81bc2addb78a526cb643cb2ef765c16f", (*SpanLog).WriteJSONL},
		{"chrome", "b726ad13d11d15a4b3ca5c3f7e74ee4a8e912e3495770f87de7dd9d5deedfa50", (*SpanLog).WriteChromeTrace},
	} {
		var buf bytes.Buffer
		if err := c.write(sampleLog(), &buf); err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != c.want {
			t.Errorf("%s export changed: sha256 %x, want %s\n%s", c.name, sum, c.want, buf.String())
		}
	}
}

func TestValidateSpansRejects(t *testing.T) {
	for name, doc := range map[string]string{
		"empty":         "",
		"unknown field": `{"span":"run","job":"j1","key":"","scheme":"","outcome":"","startUs":0,"durUs":0,"extra":1}`,
		"empty name":    `{"span":"","job":"j1","key":"","scheme":"","outcome":"","startUs":0,"durUs":0}`,
		"negative time": `{"span":"run","job":"j1","key":"","scheme":"","outcome":"","startUs":-5,"durUs":0}`,
	} {
		if _, err := ValidateSpansJSONL(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// The span Chrome export must validate against the same trace_event checker
// as the flit-lifecycle traces — that is the whole point of sharing the
// format — and must keep its lanes clear of the simulation pids.
func TestSpanChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLog().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("chrome trace invalid: %v\n%s", err, buf.String())
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int64  `json:"pid"`
			Tid  int64  `json:"tid"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var runSeen, metaSeen bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			metaSeen = true
			continue
		}
		if ev.Pid != ServicePid {
			t.Fatalf("span event on pid %d, want %d", ev.Pid, ServicePid)
		}
		if strings.HasPrefix(ev.Name, "run") {
			runSeen = true
			if ev.Ph != "X" || ev.Dur != 28_000 {
				t.Fatalf("run slice ph=%q dur=%d, want X/28000", ev.Ph, ev.Dur)
			}
			if ev.Tid != 1 {
				t.Fatalf("run span lane %d, want job lane 1", ev.Tid)
			}
		}
	}
	if !runSeen || !metaSeen {
		t.Fatalf("runSeen=%v metaSeen=%v, want both", runSeen, metaSeen)
	}
}
