package stats_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/stats"
)

// exportWindows runs the series through the JSONL exporter and returns the
// window lines after the strict validator has accepted the stream.
func exportWindows(t *testing.T, s *stats.Series, n *stats.Network) []stats.WindowMetrics {
	t.Helper()
	var buf bytes.Buffer
	if err := stats.WriteMetricsJSONL(&buf, noRouters, s, n); err != nil {
		t.Fatal(err)
	}
	if _, err := stats.ValidateMetricsJSONL(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("export rejected by own validator: %v\n%s", err, buf.String())
	}
	var out []stats.WindowMetrics
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &head); err != nil {
			t.Fatal(err)
		}
		if head.Type != "window" {
			continue
		}
		var wm stats.WindowMetrics
		if err := json.Unmarshal([]byte(line), &wm); err != nil {
			t.Fatal(err)
		}
		out = append(out, wm)
	}
	return out
}

// A series rebased mid-window at the warmup boundary must export a
// contiguous, validator-clean stream: the partial warmup window closes at
// the boundary and the first measurement window differences against the
// zeroed counters instead of going backwards.
func TestWindowedExportAcrossRebase(t *testing.T) {
	var n stats.Network
	s := stats.NewSeries(10, 8)
	for now := sim.Cycle(1); now <= 15; now++ {
		n.PacketsInjected += 4
		s.Tick(now, &n, noRouters)
	}
	s.Rebase(15, &n, noRouters) // warmup boundary mid-window, as ResetStats does
	n.Reset(15)
	for now := sim.Cycle(16); now <= 35; now++ {
		n.PacketsInjected++
		s.Tick(now, &n, noRouters)
	}

	wins := exportWindows(t, s, &n)
	if len(wins) != 4 {
		t.Fatalf("exported %d windows, want 4 (full, partial, 2 post-reset)", len(wins))
	}
	for i, w := range wins {
		if w.To <= w.From {
			t.Errorf("window %d is empty: [%d,%d)", i, w.From, w.To)
		}
		if i > 0 && w.From != wins[i-1].To {
			t.Errorf("window %d not contiguous: starts at %d, previous ended %d", i, w.From, wins[i-1].To)
		}
	}
	if w := wins[1]; w.From != 10 || w.To != 15 || w.Injected != 20 {
		t.Errorf("partial warmup window = %+v, want [10,15) with 20 injected", w)
	}
	// Post-reset windows difference against the zeroed baseline: 10/window,
	// not a wrapped-around uint64 from subtracting the warmup total.
	if w := wins[2]; w.From != 15 || w.To != 25 || w.Injected != 10 {
		t.Errorf("first measurement window = %+v, want [15,25) with 10 injected", w)
	}
}

// Rebase landing exactly on a window boundary leaves a zero-length tail;
// the export must skip it entirely — the validator rejects empty windows,
// so emitting one would poison every downstream consumer.
func TestWindowedExportZeroLengthTail(t *testing.T) {
	var n stats.Network
	s := stats.NewSeries(10, 8)
	for now := sim.Cycle(1); now <= 20; now++ {
		n.PacketsInjected++
		s.Tick(now, &n, noRouters)
	}
	s.Rebase(20, &n, noRouters) // boundary-aligned: the open window has zero cycles
	n.Reset(20)

	wins := exportWindows(t, s, &n)
	if len(wins) != 2 {
		t.Fatalf("exported %d windows, want 2 (no zero-length tail)", len(wins))
	}
	for i, w := range wins {
		if w.To <= w.From {
			t.Errorf("window %d is empty: [%d,%d)", i, w.From, w.To)
		}
	}

	// A second Rebase at the same cycle must still not emit anything.
	s.Rebase(20, &n, noRouters)
	if got := exportWindows(t, s, &n); len(got) != 2 {
		t.Fatalf("double Rebase emitted a window: %d windows, want 2", len(got))
	}
}
