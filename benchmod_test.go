package pseudocircuit_test

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModule vets and tests bench/, the module of its own that
// BENCHMARK.json runs. The root module's vet, build and test never compile
// it, so without this a rename of anything it calls (RunOnObserved, the
// network.Config its traced build fills in, ...) would break the benchmark
// with every other test green.
func TestBenchmarkModule(t *testing.T) {
	for _, args := range [][]string{{"vet", "./..."}, {"test", "./..."}} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "bench"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in bench/: %v\n%s", args[0], err, out)
		}
	}
}
