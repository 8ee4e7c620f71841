package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// A run is its own process, because peak RSS is a property of a process:
// -all and -aa start this binary again once per run.

// childRun is what one child process printed on its last two lines.
type childRun struct {
	info   info
	result result
}

func runChild(name string, trace int, o options, stderr io.Writer) (childRun, error) {
	var c childRun
	exe, err := os.Executable()
	if err != nil {
		return c, err
	}
	cmd := exec.Command(exe, "-workload", name, "-trace", strconv.Itoa(trace),
		"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-out", o.outDir, "-nocd", o.nocd)
	cmd.Stderr = stderr
	stdout, err := cmd.Output()
	if err != nil {
		return c, fmt.Errorf("%s seed %d trace %d: %w", name, o.seed, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) < 2 {
		return c, fmt.Errorf("%s: expected an info line and a result line, got %q", name, stdout)
	}
	if err := json.Unmarshal(lines[len(lines)-2], &c.info); err != nil {
		return c, err
	}
	return c, json.Unmarshal(lines[len(lines)-1], &c.result)
}

// runAll prints every metric of every workload, end-to-end then per-layer,
// and leaves each workload's trace in the output directory.
func runAll(o options) error {
	bad := 0
	for _, w := range workloadWhy() {
		fmt.Fprintf(os.Stderr, "\n== %s: %s\n", w[0], w[1])
		for trace := 0; trace <= 1; trace++ {
			c, err := runChild(w[0], trace, o, os.Stderr)
			if err != nil {
				return err
			}
			if !c.result.Correct {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs failed their checks", bad)
	}
	return nil
}

// runAA is the A/A check: the same commit against itself. Every workload
// runs n times in set A and n times in set B, alternating, pair i of both
// sets with seed base+i — the acceptance procedure applied to a change, with
// no change. It prints a Markdown report and fails when any metric's two
// medians differ by more than its bound, or its spread over all runs exceeds
// the bound, or a pair's digests differ.
func runAA(n int, o options) error {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	raw := map[key][]float64{}
	var breaches []string

	for i := 0; i < n; i++ {
		for _, w := range workloadWhy() {
			var digests [2]string
			for set := 0; set < 2; set++ {
				oi := o
				oi.seed = o.seed + uint64(i)
				fmt.Fprintf(os.Stderr, "aa: %s pair %d set %c\n", w[0], i, 'A'+set)
				c, err := runChild(w[0], 0, oi, io.Discard)
				if err != nil {
					return err
				}
				if !c.result.Correct || c.result.Failed > 0 {
					breaches = append(breaches, fmt.Sprintf("%s pair %d set %c: checks failed: %v", w[0], i, 'A'+set, c.info.Problems))
				}
				for name, v := range c.result.Metrics {
					sets[set][key{w[0], name}] = append(sets[set][key{w[0], name}], v.Value)
				}
				for name, v := range c.info.Ungated {
					raw[key{w[0], name}] = append(raw[key{w[0], name}], v)
				}
				digests[set] = c.info.Digest
			}
			if digests[0] != digests[1] {
				breaches = append(breaches, fmt.Sprintf("%s pair %d: result digests differ (%s, %s)", w[0], i, digests[0], digests[1]))
			}
		}
	}

	fmt.Printf("# A/A check: %d pairs per workload, %g s measured per run\n\n", n, o.seconds)
	fmt.Println("`spread` is (Q3 - Q1) / median over all runs of both sets, quartiles as Python's")
	fmt.Println("`statistics.quantiles(n=4)`; `B vs A` is how much worse set B's median is than set A's.")
	fmt.Println("Both must stay within the bound; `wide` marks a spread over a third of it, which passes but")
	fmt.Println("leaves little room for a noisier hour. Rows without a bound are ungated: the job-time tail, and")
	fmt.Println("the same runs in raw wall-clock time.")
	for _, w := range workloadWhy() {
		fmt.Printf("\n## %s\n\n", w[0])
		fmt.Println("| metric | unit | median A | median B | Q1 | Q3 | spread | B vs A | bound | |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
		for _, d := range endToEnd {
			a, b := sets[0][key{w[0], d.name}], sets[1][key{w[0], d.name}]
			both := append(append([]float64(nil), a...), b...)
			q1, _, q3 := quartiles(both)
			sp := spread(both)
			worse := median(b)/median(a) - 1
			if d.better == "higher" {
				worse = median(a)/median(b) - 1
			}
			verdict := "ok"
			// setup_s is gated on its medians only, as in the acceptance check.
			switch gated := d.name != "setup_s"; {
			case worse > d.bound || (gated && sp > d.bound):
				verdict = "BREACH"
				breaches = append(breaches, fmt.Sprintf("%s %s: spread %.3f, B vs A %+.3f, bound %.2f", w[0], d.name, sp, worse, d.bound))
			case gated && sp > d.bound/3:
				verdict = "wide"
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.6g | %.6g | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				d.name, d.unit, median(a), median(b), q1, q3, 100*sp, 100*worse, 100*d.bound, verdict)
		}
		for _, name := range []string{"job_ms_p90", "host.raw_cycles_per_wall_s", "host.raw_job_ms_p50", "host.raw_job_ms_p90", "host.refops_per_s"} {
			xs := raw[key{w[0], name}]
			q1, q2, q3 := quartiles(xs)
			fmt.Printf("| %s | | | %.6g | %.6g | %.6g | %.1f%% | | | |\n", name, q2, q1, q3, 100*spread(xs))
		}
	}
	if len(breaches) > 0 {
		fmt.Printf("\n## Breaches\n\n- %s\n", strings.Join(breaches, "\n- "))
		return fmt.Errorf("%d breaches", len(breaches))
	}
	fmt.Println("\nNo breach: every metric of every workload repeats within its bound, and every pair's result digest is equal.")
	return nil
}
