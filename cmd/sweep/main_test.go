package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"pseudocircuit/internal/experiments"
)

// TestRejectsBadInput: input that used to surface as a goroutine dump or a
// table of NaN% is refused before anything runs, with one line on stderr
// and exit status 1.
func TestRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // must appear in the message
	}{
		{[]string{"-exp", "fig1", "-benchmarks", "nosuch"}, "fma3d"},
		{[]string{"-exp", "fig1", "-benchmarks", "fma3d,nosuch"}, "fma3d"},
		{[]string{"-exp", "fig8", "-measure", "-5"}, "negative"},
		{[]string{"-exp", "fig8", "-warmup", "-1"}, "negative"},
		{[]string{"-exp", "fig99"}, "fig12"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", tc.args, code)
		}
		msg := stderr.String()
		if strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "sweep: ") || !strings.Contains(msg, tc.want) {
			t.Errorf("%v: stderr %q, want one \"sweep: ...\" line naming %q", tc.args, msg, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before failing", tc.args, stdout.String())
		}
	}
}

// TestRunsOneAndAll: a name selects its experiment, fig10 is the fig9 grid,
// and -exp all -progress ends every simulating experiment on an n/n line.
func TestRunsOneAndAll(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "table2"}, &stdout, &stderr); code != 0 || !strings.HasPrefix(stdout.String(), "== table2:") {
		t.Errorf("table2: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	if code := run([]string{"-exp", "table2", "-csv"}, &stdout, &stderr); code != 0 ||
		!strings.HasPrefix(stdout.String(), "component,energy/event (pJ),share\nBuffer (write+read),1.96,23.4%\n") {
		t.Errorf("table2 -csv: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	small := []string{"-warmup", "20", "-measure", "60", "-benchmarks", "fma3d", "-progress"}
	if code := run(append([]string{"-exp", "fig10"}, small...), &stdout, &stderr); code != 0 ||
		!strings.Contains(stdout.String(), "== fig10.4:") || !strings.HasSuffix(stderr.String(), "fig9: 30/30\n") {
		t.Errorf("fig10: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run(append([]string{"-exp", "all"}, small...), &stdout, &stderr); code != 0 || !strings.HasPrefix(stdout.String(), "== table1:") {
		t.Errorf("all: exit %d, stderr %q", code, stderr.String())
	}
	var simulating []string
	for _, e := range experiments.All {
		if !e.Static {
			simulating = append(simulating, e.Name)
		}
	}
	if short := unfinished(stderr.String(), simulating); len(short) > 0 {
		t.Errorf("all: %v did not end on an n/n line; stderr %q", short, stderr.String())
	}
	// The check catches a stream that stops short and one that never starts.
	if short := unfinished("\rfig1: 1/2\rfig1: 2/2\n\rfig6: 1/3\rfig6: 2/3", []string{"fig1", "fig6", "fig8"}); !slices.Equal(short, []string{"fig6", "fig8"}) {
		t.Errorf("unfinished = %v, want [fig6 fig8]", short)
	}
}

// unfinished returns the names whose last -progress line in stderr is not
// n/n, in the order given.
func unfinished(stderr string, names []string) []string {
	last := map[string]string{}
	for _, line := range strings.FieldsFunc(stderr, func(r rune) bool { return r == '\r' || r == '\n' }) {
		if name, count, ok := strings.Cut(line, ": "); ok {
			last[name] = count
		}
	}
	var short []string
	for _, name := range names {
		if done, total, ok := strings.Cut(last[name], "/"); !ok || done != total {
			short = append(short, name)
		}
	}
	return short
}
