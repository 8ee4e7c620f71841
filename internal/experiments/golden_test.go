package experiments_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pseudocircuit/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current tree")

// goldenOptions is the reduced size TestGolden pins the tables at. Three
// benchmarks, so the order in which an average is accumulated is visible.
var goldenOptions = experiments.Options{Warmup: 100, Measure: 400, Benchmarks: []string{"fma3d", "specjbb", "fft"}}

// TestGolden pins the rendered tables of every experiment, at
// goldenOptions, to testdata/<name>.golden. The files were recorded on the
// commit before the experiments moved onto one runner (go test -run
// TestGolden -update rewrites them); a refactor of this package must leave
// them byte-identical.
func TestGolden(t *testing.T) {
	for _, e := range experiments.All {
		t.Run(e.Name, func(t *testing.T) {
			var got bytes.Buffer
			for _, tb := range e.Run(goldenOptions) {
				tb.Fprint(&got)
			}
			path := filepath.Join("testdata", e.Name+".golden")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s differs from %s\n--- got ---\n%s--- want ---\n%s", e.Name, path, got.Bytes(), want)
			}
		})
	}
}

// TestProgressReported: every simulating experiment reports each simulation
// it runs through Options.Progress, never past its total, and ends on
// done == total.
func TestProgressReported(t *testing.T) {
	for _, e := range experiments.All {
		if e.Static {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			calls, last, total := 0, 0, 0
			o := experiments.Options{Warmup: 20, Measure: 60, Benchmarks: []string{"fma3d"}}
			o.Progress = func(done, tot int) { // calls are serialized
				calls++
				if done != calls || done > tot {
					t.Errorf("call %d reported %d/%d", calls, done, tot)
				}
				last, total = done, tot
			}
			e.Run(o)
			if calls == 0 || last != total {
				t.Errorf("%d progress calls, last %d/%d", calls, last, total)
			}
		})
	}
}
