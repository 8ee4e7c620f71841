package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestLatestSnapshot(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_2.json", "BENCH_10.json", "BENCH_9.json", "BENCH_x.json", "BENCH_.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := latestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_10.json" {
		t.Fatalf("latestSnapshot = %s, want BENCH_10.json (numeric order, not lexical)", got)
	}
}

func TestLatestSnapshotEmptyFailsLoudly(t *testing.T) {
	if _, err := latestSnapshot(t.TempDir()); err == nil {
		t.Fatal("latestSnapshot on an empty directory must error, not pass vacuously")
	}
}

func TestParseTolerances(t *testing.T) {
	m, err := parseTolerances("fig12/*=0.35, sweep/warm-point=1.0")
	if err != nil {
		t.Fatal(err)
	}
	if m["fig12/*"] != 0.35 || m["sweep/warm-point"] != 1.0 {
		t.Fatalf("parsed %v", m)
	}
	for _, bad := range []string{"fig12/*", "a=b", "a=-1", "[=0.5"} {
		if _, err := parseTolerances(bad); err == nil {
			t.Errorf("parseTolerances(%q) should fail", bad)
		}
	}
}

func TestToleranceFor(t *testing.T) {
	over := map[string]float64{"fig12/*": 0.35, "fig12/sequential": 0.2}
	if got := toleranceFor("fig12/parallel", 1.0, over); got != 0.35 {
		t.Fatalf("glob override = %v, want 0.35", got)
	}
	if got := toleranceFor("fig12/sequential", 1.0, over); got != 0.2 {
		t.Fatalf("most specific override = %v, want 0.2", got)
	}
	if got := toleranceFor("sweep/warm-point", 1.0, over); got != 1.0 {
		t.Fatalf("default = %v, want 1.0", got)
	}
}

func TestSeriesOrder(t *testing.T) {
	m := map[string]float64{"sweep/warm-point": 1, "job/build": 1, "mesh32/parallel": 1, "mesh32/sequential": 1, "fig12/sequential": 1, "extra/z": 1, "extra/a": 1}
	got := seriesOrder(m)
	want := []string{"fig12/sequential", "mesh32/sequential", "mesh32/parallel", "job/build", "sweep/warm-point", "extra/a", "extra/z"}
	if len(got) != len(want) {
		t.Fatalf("seriesOrder = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seriesOrder = %v, want %v", got, want)
		}
	}
}
