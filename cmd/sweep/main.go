// Command sweep regenerates the paper's evaluation: every figure and table
// (Fig. 1, 6, 8-14, Tables I-II) plus the ablation study, printing the same
// rows/series the paper reports.
//
// Examples:
//
//	sweep -exp all                 # everything (~40 s on 2 CPUs)
//	sweep -exp fig8                # one figure
//	sweep -exp fig9 -benchmarks fma3d,specjbb -measure 5000
//	sweep -exp fig12 -csv          # CSV output for plotting
//	sweep -exp fig13 -progress     # live n/total on stderr, any experiment
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"pseudocircuit/internal/experiments"
	"pseudocircuit/noc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, e := range experiments.All {
		names = append(names, e.Name)
	}

	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	var (
		exp      = fs.String("exp", "all", "experiment: "+strings.Join(names, ", ")+", all (fig10 is fig9: one grid renders both)")
		warmup   = fs.Int("warmup", 1000, "warmup cycles")
		measure  = fs.Int("measure", 10000, "measured cycles")
		benches  = fs.String("benchmarks", "", "comma-separated benchmark subset (default: all)")
		seed     = fs.Uint64("seed", 1, "base seed")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		progress = fs.Bool("progress", false, "report live per-simulation progress on stderr")
	)
	fs.Parse(args)
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "sweep: "+format+"\n", a...)
		return 1
	}

	if *exp == "fig10" {
		*exp = "fig9"
	}
	if *exp != "all" && !slices.Contains(names, *exp) {
		return fail("unknown experiment %q (have %s, all)", *exp, strings.Join(names, ", "))
	}
	if *warmup < 0 || *measure < 0 {
		return fail("-warmup %d -measure %d: cycle counts must not be negative", *warmup, *measure)
	}
	o := experiments.Options{Warmup: *warmup, Measure: *measure, Seed: *seed}
	if *benches != "" {
		o.Benchmarks = strings.Split(*benches, ",")
		known := noc.CMPBenchmarks()
		for _, b := range o.Benchmarks {
			if !slices.Contains(known, b) {
				return fail("unknown benchmark %q (have %s)", b, strings.Join(known, ", "))
			}
		}
	}

	for _, e := range experiments.All {
		if *exp != "all" && *exp != e.Name {
			continue
		}
		if *progress {
			o.Progress = func(done, total int) {
				fmt.Fprintf(stderr, "\r%s: %d/%d", e.Name, done, total)
				if done == total {
					fmt.Fprintln(stderr)
				}
			}
		}
		for _, t := range e.Run(o) {
			if *csv {
				t.CSV(stdout)
			} else {
				t.Fprint(stdout)
			}
		}
	}
	return 0
}
