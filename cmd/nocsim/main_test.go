package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pseudocircuit/noc"
)

// TestRejectsBadInput: both front doors refuse the same specs. What nocd
// answers with a 400, nocsim answers with one line on stderr and exit 1:
// not a goroutine dump from a constructor, and not a table "over -5
// cycles". And the topology a report names is the one that ran.
func TestRejectsBadInput(t *testing.T) {
	workers := filepath.Join(t.TempDir(), "workers.json")
	if err := os.WriteFile(workers, []byte(`{"topology":"mesh4x4","scheme":"pseudo","workers":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-topo", "mecs4x4x4", "-evc", "-scheme", "baseline"},
		{"-topo", "mesh8x8", "-evc", "-scheme", "pseudo"},
		{"-topo", "mesh0x4"},
		{"-topo", "mesh4x4", "-benchmark", "fma3d"},
		{"-measure", "-5"},
		{"-config", workers}, // no such field
		{"-topo", "mesh8x8", "-evc", "-scheme", "baseline", "-routing", "o1turn"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before failing", args, stdout.String())
		}
		msg := stderr.String()
		if strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "nocsim: ") || strings.Contains(msg, "goroutine") {
			t.Errorf("%v: stderr %q, want one \"nocsim: ...\" line", args, msg)
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-topo", "mecs8x2x4", "-scheme", "pseudo+s+b", "-warmup", "100", "-measure", "200", "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("mecs8x2x4: exit %d, stderr %q", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), `"topology": "mecs8x2x4"`) {
		t.Errorf("mecs8x2x4 report names another topology:\n%s", stdout.String())
	}
}

// TestFaultedJSON: a faulted spec runs end to end from the command line and
// accounts for its storms: all four events applied, packets dropped.
func TestFaultedJSON(t *testing.T) {
	const schedule = `{"drop":"reroute","events":[
		{"cycle":1200,"kind":"router-down","router":27},
		{"cycle":2400,"kind":"router-up","router":27},
		{"cycle":1500,"kind":"link-down","router":5,"port":0},
		{"cycle":2000,"kind":"link-up","router":5,"port":0}]}`
	var stdout, stderr bytes.Buffer
	code := run([]string{"-topo", "mesh8x8", "-scheme", "pseudo+s+b", "-va", "static",
		"-traffic", "uniform", "-rate", "0.10", "-warmup", "500", "-measure", "3000",
		"-faults", schedule, "-json"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	var out struct{ Result noc.Result }
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if r := out.Result; r.FaultEvents != 4 || r.PacketsDropped == 0 {
		t.Errorf("FaultEvents %d, PacketsDropped %d: want 4 and > 0", r.FaultEvents, r.PacketsDropped)
	}
}

// TestTraceExports: a small observed run writes exports that pass their own
// validators (the per-router rows summing to the global line among them),
// for the paper's scheme and for the EVC router on the shared pipeline. The
// EVC run must be seen by the probes too: one metrics row per router (the
// sums-to-global check is vacuous on none), crossbar traversals among its
// events, and no crossbar-locality figure in its report.
func TestTraceExports(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		args []string
	}{
		{"psb", []string{"-topo", "mesh4x4", "-traffic", "uniform", "-rate", "0.10"}},
		{"evc", []string{"-topo", "mesh4x4", "-scheme", "baseline", "-evc", "-va", "dynamic",
			"-traffic", "bitcomp", "-rate", "0.10"}},
	} {
		trace, events, metrics := filepath.Join(dir, c.name+".trace"), filepath.Join(dir, c.name+"-events.jsonl"), filepath.Join(dir, c.name+"-metrics.jsonl")
		var stdout, stderr bytes.Buffer
		args := append(c.args, "-warmup", "200", "-measure", "1000",
			"-trace", trace, "-trace-jsonl", events, "-metrics-out", metrics)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", c.name, code, stderr.String())
		}
		report := stdout.String()
		stdout.Reset()
		if code := run([]string{"-validate-trace", trace, "-validate-events", events, "-validate-metrics", metrics},
			&stdout, &stderr); code != 0 || strings.Count(stdout.String(), ": valid ") != 3 {
			t.Fatalf("%s: validators: exit %d, stdout %q, stderr %q", c.name, code, stdout.String(), stderr.String())
		}
		if c.name != "evc" {
			continue
		}
		m, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatal(err)
		}
		if rows := strings.Count(string(m), `"type":"router"`); rows != 16 {
			t.Errorf("evc: %d router rows in the metrics, want 16", rows)
		}
		if e, err := os.ReadFile(events); err != nil || !strings.Contains(string(e), `"ev":"st"`) {
			t.Errorf("evc: no crossbar traversal among the events (%v)", err)
		}
		if !strings.Contains(report, "crossbar n/a") {
			t.Errorf("evc: the report gives a crossbar locality:\n%s", report)
		}
	}
}
