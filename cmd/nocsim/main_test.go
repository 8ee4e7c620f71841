package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
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
	garbage := filepath.Join(t.TempDir(), "garbage.jsonl")
	if err := os.WriteFile(garbage, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-faults", "{"},
		{"-faults", `{"events":[]} {}`}, // trailing data
		{"-faults", "@" + filepath.Join(t.TempDir(), "missing.json")},
		{"-churn", `{"linkFail":2}`},
		{"-churn", "nope"},
		{"-reliable", `{"budget":-1}`},
		{"-reliable", "nope"},
		{"-topo", "mesh4x4", "-measure", "100", "-metrics-out", filepath.Join(t.TempDir(), "no", "m.jsonl")},
		{"-validate-metrics", filepath.Join(t.TempDir(), "missing.jsonl")},
		{"-validate-events", garbage},
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

// TestDocumentedFlags: the README's -churn, -reliable and -links each show
// in the report: the fault line, the reliability line and the most-loaded
// channels, an ejection port among them.
func TestDocumentedFlags(t *testing.T) {
	for _, c := range []struct {
		args     []string
		want     []string
		channels int // lines under "most-loaded channels:"
	}{
		{[]string{"-churn", `{"seed":7,"linkFail":1e-3,"linkRepair":0.01}`, "-reliable", "default"},
			[]string{"faults              ", "reliability         "}, 0},
		{[]string{"-reliable", `{"timeout":128,"budget":4}`, "-links", "3"},
			[]string{"reliability         ", "most-loaded channels:\n", "(eject)"}, 3},
	} {
		var stdout, stderr bytes.Buffer
		args := append([]string{"-topo", "mesh4x4", "-rate", "0.2", "-warmup", "100", "-measure", "500"}, c.args...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", c.args, code, stderr.String())
		}
		for _, want := range c.want {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("%v: report lacks %q:\n%s", c.args, want, stdout.String())
			}
		}
		if n := strings.Count(stdout.String(), "\n  router "); n != c.channels {
			t.Errorf("%v: %d channel lines, want %d", c.args, n, c.channels)
		}
	}
}

// failWriter refuses every write, as a full disk or a closed pipe does.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestWriteFailuresAreReported: an export or a report that cannot be
// written is the run's error, not a silently short file.
func TestWriteFailuresAreReported(t *testing.T) {
	small := []string{"-topo", "mesh4x4", "-warmup", "100", "-measure", "200"}
	var stderr bytes.Buffer
	if code := run(append(small, "-json"), failWriter{}, &stderr); code != 1 || !strings.Contains(stderr.String(), "encoding result") {
		t.Errorf("-json into a failing stdout: exit %d, stderr %q", code, stderr.String())
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail a file write")
	}
	stderr.Reset()
	if code := run(append(small, "-metrics-out", "/dev/full"), io.Discard, &stderr); code != 1 || !strings.Contains(stderr.String(), "writing /dev/full") {
		t.Errorf("-metrics-out /dev/full: exit %d, stderr %q", code, stderr.String())
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
// for the paper's scheme, for the EVC router on the shared pipeline and for
// a faulted run that records every event kind. Each file is pinned byte for
// byte, so a change to the rings or the line codec under the probes cannot
// change what a run writes. The EVC run must be seen by the probes too: one
// metrics row per router (the sums-to-global check is vacuous on none),
// crossbar traversals among its events, and no crossbar-locality figure in
// its report.
func TestTraceExports(t *testing.T) {
	const schedule = `{"drop":"reroute","events":[
		{"cycle":400,"kind":"router-down","router":5},
		{"cycle":800,"kind":"router-up","router":5},
		{"cycle":500,"kind":"link-down","router":9,"port":0},
		{"cycle":700,"kind":"link-up","router":9,"port":0}]}`
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		args []string
		sha  [3]string // trace, events, metrics
	}{
		{"psb", []string{"-topo", "mesh4x4", "-traffic", "uniform", "-rate", "0.10"}, [3]string{
			"bc18e70e1fe9246d46e28feae66d38cf87ac84daf0f02d52e05b7bf1c60f1a9e",
			"5de6dd7dbbc53b5fdfaf2cc64d187aac89d33a875e8ae22eb41220e683464071",
			"9b252f05bbb7a546859c8000ab3b7db4ca8706cffae660698366839ff0090850",
		}},
		{"evc", []string{"-topo", "mesh4x4", "-scheme", "baseline", "-evc", "-va", "dynamic",
			"-traffic", "bitcomp", "-rate", "0.10"}, [3]string{
			"c24a1959c2644d1d10a04f86e20a486029f63f0580bb8672a17072ad65dd1269",
			"fef435ef76b48cf11d45e648eeeafd6dc139ea79b1b8baf2eb75af1448c6c8ee",
			"ab1bc96fca862e587ecb184bc9e124ac72e0b84c84aeb14099fe2b4d180538b9",
		}},
		{"faulted", []string{"-topo", "mesh4x4", "-traffic", "uniform", "-rate", "0.10",
			"-window", "100", "-faults", schedule}, [3]string{
			"4d21d41dc803188ec9d50808cc1792f8c867547085cb20e756f28bdf6c7e6187",
			"581a40ddde22360311353942c8a060bd4f9a8b2ea7e6540aa554db5a6cba06fe",
			"a9bab7fe4de2ad2d941edb78a23454215ee965ab3331fd8e0a31b25993fdc792",
		}},
	} {
		trace, events, metrics := filepath.Join(dir, c.name+".trace"), filepath.Join(dir, c.name+"-events.jsonl"), filepath.Join(dir, c.name+"-metrics.jsonl")
		var stdout, stderr bytes.Buffer
		args := append(c.args, "-warmup", "200", "-measure", "1000",
			"-trace", trace, "-trace-jsonl", events, "-metrics-out", metrics)
		if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
			t.Fatalf("%s: exit %d, stderr %q", c.name, code, stderr.String())
		}
		report := stdout.String()
		stdout.Reset()
		if code := run([]string{"-validate-trace", trace, "-validate-events", events, "-validate-metrics", metrics},
			&stdout, &stderr); code != 0 || strings.Count(stdout.String(), ": valid ") != 3 {
			t.Fatalf("%s: validators: exit %d, stdout %q, stderr %q", c.name, code, stdout.String(), stderr.String())
		}
		file := map[string][]byte{}
		for i, path := range []string{trace, events, metrics} {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			file[path] = data
			if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != c.sha[i] {
				t.Errorf("%s: %s changed: sha256 %x, want %s", c.name, filepath.Base(path), sum, c.sha[i])
			}
		}
		switch c.name {
		case "faulted":
			e, m := string(file[events]), string(file[metrics])
			for _, kind := range []string{"inject", "bw", "sa", "st", "bypass", "eject",
				"link-down", "link-up", "router-down", "router-up", "drop"} {
				if !strings.Contains(e, `"ev":"`+kind+`"`) {
					t.Errorf("faulted: no %q event", kind)
				}
			}
			if drops, windows := strings.Count(e, `"ev":"drop"`), strings.Count(m, `"type":"window"`); drops != 9 || windows != 12 {
				t.Errorf("faulted: %d drop events and %d window lines, want 9 and 12", drops, windows)
			}
		case "evc":
			if rows := strings.Count(string(file[metrics]), `"type":"router"`); rows != 16 {
				t.Errorf("evc: %d router rows in the metrics, want 16", rows)
			}
			if !strings.Contains(string(file[events]), `"ev":"st"`) {
				t.Error("evc: no crossbar traversal among the events")
			}
			if !strings.Contains(report, "crossbar n/a") {
				t.Errorf("evc: the report gives a crossbar locality:\n%s", report)
			}
		}
	}
}

// TestTruncationIsReported: a probe whose ring evicted says so on stderr,
// once, with what it kept, what it dropped and what to change; the report on
// stdout and the exit status are those of a run whose probes kept all.
func TestTruncationIsReported(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-topo", "mesh4x4", "-rate", "0.10", "-warmup", "200"}
	for _, c := range []struct {
		name, want string
		args       []string
	}{
		{"trace", "nocsim: trace kept the newest 64 events and dropped ",
			[]string{"-measure", "1000", "-trace-jsonl", filepath.Join(dir, "e.jsonl"), "-trace-cap", "64"}},
		{"series", "nocsim: time series kept the newest 4096 windows (a fixed cap) and dropped 1104;",
			[]string{"-measure", "5000", "-metrics-out", filepath.Join(dir, "m.jsonl"), "-window", "1"}},
	} {
		var stdout, stderr, plain bytes.Buffer
		if code := run(append(base, c.args...), &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit %d, stderr %q", c.name, code, stderr.String())
		}
		if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, c.want) {
			t.Errorf("%s: stderr %q, want one line starting %q", c.name, msg, c.want)
		}
		if code := run(append(base, c.args[:2]...), &plain, io.Discard); code != 0 || plain.String() != stdout.String() {
			t.Errorf("%s: the report differs from an unprobed run's:\n%s\n%s", c.name, stdout.String(), plain.String())
		}
	}
}
