package stats_test

import (
	"bytes"
	"strings"
	"testing"

	"pseudocircuit/internal/stats"
)

// exportFixture builds a registry/series/global trio as a real run produces.
func exportFixture() (*stats.Registry, *stats.Series, *stats.Network) {
	g := stats.NewRegistry([]int{2, 2}, []int{2, 2})
	a, b := g.Router(0), g.Router(1)
	a.SAGrants, b.SAGrants = 12, 8
	a.In[0] = stats.PortStats{Traversals: 6, PCReused: 3, BufHighWater: 2}
	a.In[1] = stats.PortStats{Traversals: 4, PCReused: 1, CreditStalls: 5}
	b.In[0] = stats.PortStats{Traversals: 6, PCReused: 2}

	var n stats.Network
	n.MeasuredFrom, n.MeasuredTo = 100, 200
	n.PacketsInjected, n.PacketsDelivered, n.FlitsDelivered = 40, 38, 190
	n.LatencySamples, n.LatencySum = 38, 760

	s := stats.NewSeries(50, 4)
	n2 := n // close two windows against evolving counters
	s.Tick(150, &n2, g)
	s.Tick(200, &n2, g)
	return g, s, &n
}

func TestMetricsRoundTrip(t *testing.T) {
	g, s, n := exportFixture()
	var buf bytes.Buffer
	if err := stats.WriteMetricsJSONL(&buf, g, s, n); err != nil {
		t.Fatal(err)
	}
	lines, err := stats.ValidateMetricsJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("round trip invalid: %v\n%s", err, buf.String())
	}
	// 2 router lines + 2 closed windows + 1 global line.
	if want := strings.Count(buf.String(), "\n"); lines != want {
		t.Errorf("validated %d lines, file has %d", lines, want)
	}
	if !strings.Contains(buf.String(), `"type":"router"`) ||
		!strings.Contains(buf.String(), `"type":"window"`) ||
		!strings.Contains(buf.String(), `"type":"global"`) {
		t.Errorf("missing line types:\n%s", buf.String())
	}
}

// No routers and a nil series: only the global line is written, still valid.
func TestMetricsGlobalOnly(t *testing.T) {
	_, _, n := exportFixture()
	var buf bytes.Buffer
	if err := stats.WriteMetricsJSONL(&buf, stats.NewRegistry(nil, nil), nil, n); err != nil {
		t.Fatal(err)
	}
	if lines, err := stats.ValidateMetricsJSONL(&buf); err != nil || lines != 1 {
		t.Errorf("global-only export: %d lines, err %v", lines, err)
	}
}

func TestValidateMetricsRejects(t *testing.T) {
	valid := func() string {
		g, s, n := exportFixture()
		var buf bytes.Buffer
		if err := stats.WriteMetricsJSONL(&buf, g, s, n); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}()

	cases := []struct {
		name, input, wantErr string
	}{
		{"empty", "", "empty"},
		{"unknown type", `{"type":"bogus"}`, "unknown type"},
		{"unknown field", `{"type":"global","bogus_field":1}`, "bogus_field"},
		{"empty window", `{"type":"window","from":100,"to":100}`, "empty window"},
		{"negative router", `{"type":"router","router":-1}`, "negative router"},
		{
			"duplicate router",
			`{"type":"router","router":0}` + "\n" + `{"type":"router","router":0}`,
			"duplicate router",
		},
		{
			"port sum mismatch",
			`{"type":"router","router":0,"pc_reused":5,"ports":[{"port":0,"pc_reused":1}]}`,
			"port pc_reused sum",
		},
		{
			"global sum mismatch",
			// Hits the global line (and harmlessly the window lines, which
			// carry the same delta but are not cross-checked).
			strings.ReplaceAll(valid, `"pc_reused":6`, `"pc_reused":7`),
			"pc_reused sum",
		},
		{"two globals", `{"type":"global"}` + "\n" + `{"type":"global"}`, "global lines"},
		{"not JSON", `{"type":`, "metrics line 1"},
		{"unknown router field", `{"type":"router","router":0,"bogus":1}`, "router: "},
		{"unknown window field", `{"type":"window","from":0,"to":1,"bogus":1}`, "window: "},
		{
			"traversal sum mismatch",
			`{"type":"router","router":0,"traversals":2}` + "\n" + `{"type":"global","traversals":3}`,
			"traversals sum",
		},
		{
			"grant sum mismatch",
			`{"type":"router","router":0,"sa_grants":2}` + "\n" + `{"type":"global","sa_grants":3}`,
			"sa_grants sum",
		},
	}
	for _, c := range cases {
		_, err := stats.ValidateMetricsJSONL(strings.NewReader(c.input))
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}
	// Sanity: the unmodified fixture still passes.
	if _, err := stats.ValidateMetricsJSONL(strings.NewReader(valid)); err != nil {
		t.Errorf("fixture no longer valid: %v", err)
	}
}
