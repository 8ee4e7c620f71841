// Package experiments regenerates every table and figure of the paper's
// evaluation (§6, §7): each Fig/Table function runs the required simulations
// and returns both typed results (asserted by tests) and printable tables
// whose rows mirror what the paper reports. cmd/sweep prints them;
// bench_test.go wraps them in testing.B benchmarks.
//
// Every figure has the same three steps: list its points (cmpPoint,
// meshPoint), run them (Options.run, or Options.each when it must look at
// the network afterwards) and reduce the results, in point order, to its
// typed result. The runner owns the run protocol, the worker pool and
// progress reporting, so no figure handles them.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/stats"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/vcalloc"
	"pseudocircuit/noc"
)

// Options tunes experiment runs. The zero value reproduces the full-size
// runs used by cmd/sweep; benchmarks pass reduced cycle counts.
type Options struct {
	Warmup     int      // warmup cycles (default 1000)
	Measure    int      // measured cycles (default 10000)
	Benchmarks []string // benchmark subset for the trace figures (default: all)
	Seed       uint64   // base seed (default 1)
	// Progress, when non-nil, is invoked after each completed simulation run
	// with the number done so far and the total for the experiment. Runs
	// execute on a worker pool, but calls are serialized.
	Progress func(done, total int)
}

func (o Options) defaults() Options {
	if o.Warmup == 0 {
		o.Warmup = 1000
	}
	if o.Measure == 0 {
		o.Measure = 10000
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = noc.CMPBenchmarks()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Experiment is one entry of cmd/sweep's -exp list: its name, and what runs
// it and renders its tables.
type Experiment struct {
	Name string
	Run  func(Options) []Table
	// Static marks the paper's two tables of constants: they run no
	// simulation and report no progress.
	Static bool
}

// All is every experiment, under its sweep name, in the order sweep -exp all
// prints them. The Fig. 9/10 grid is one entry: it renders both figures.
var All = []Experiment{
	{Name: "table1", Run: table(TableI), Static: true},
	{Name: "table2", Run: table(TableII), Static: true},
	{Name: "fig1", Run: tables(Fig1)},
	{Name: "fig6", Run: tables(Fig6)},
	{Name: "fig8", Run: tables(Fig8)},
	{Name: "fig9", Run: tables(Fig9And10)},
	{Name: "fig11", Run: tables(Fig11)},
	{Name: "fig12", Run: tables(Fig12)},
	{Name: "fig13", Run: tables(Fig13)},
	{Name: "fig14", Run: tables(Fig14)},
	{Name: "ablations", Run: tables(Ablations)},
	{Name: "heatmap", Run: tables(RouterHeatmap)},
	{Name: "faults", Run: tables(FaultWindow)},
	{Name: "fault-heatmap", Run: tables(FaultHeatmap)},
	{Name: "churn", Run: tables(Churn)},
	{Name: "ext-system", Run: tables(SystemImpact)},
	{Name: "ext-load", Run: tables(ReuseVsLoad)},
}

// tables adapts a typed experiment to "run it, render its tables".
func tables[R interface{ Tables() []Table }](f func(Options) R) func(Options) []Table {
	return func(o Options) []Table { return f(o).Tables() }
}

// table adapts a bare table the same way.
func table(f func() Table) func(Options) []Table {
	return func(Options) []Table { return []Table{f()} }
}

// Table is a printable result set whose rows mirror a paper figure/table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	fmt.Fprintln(w)
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, ","))
	}
}

// schemeLabels are the paper's plot labels.
var schemeLabels = []string{"Baseline", "Pseudo", "Pseudo+S", "Pseudo+B", "Pseudo+S+B"}

// progress returns a tick function that counts completed runs and reports
// them through o.Progress. Safe to call from concurrent workers; a nil
// Progress yields a no-op.
func (o Options) progress(total int) func() {
	if o.Progress == nil {
		return func() {}
	}
	var mu sync.Mutex
	done := 0
	return func() {
		mu.Lock()
		defer mu.Unlock()
		done++
		o.Progress(done, total)
	}
}

func pct(v float64) string  { return fmt.Sprintf("%.1f%%", 100*v) }
func num(v float64) string  { return fmt.Sprintf("%.2f", v) }
func norm(v float64) string { return fmt.Sprintf("%.3f", v) }

// point is one simulation of a figure: a noc.Experiment without its run
// protocol (Seed, Warmup and Measure come from Options) plus
// the traffic that drives it. A figure lists its points, runs them and
// reduces the results.
type point struct {
	noc.Experiment
	traffic func(e noc.Experiment) noc.Workload
}

// cmpPoint is a benchmark of the closed-loop CMP substrate on the platform
// of paper §5 / Fig. 7: a 4×4 concentrated mesh with 2 cores + 2 L2 banks
// per router. Figures that host the CMP elsewhere overwrite Topology.
func cmpPoint(benchmark string, s core.Scheme, algo routing.Algorithm, pol vcalloc.Policy) point {
	return point{
		Experiment: noc.Experiment{Topology: topology.NewCMesh(4, 4, 4), Scheme: s, Routing: algo, Policy: pol},
		traffic: func(e noc.Experiment) noc.Workload {
			w, err := e.CMPWorkload(benchmark)
			if err != nil {
				panic(err)
			}
			return w
		},
	}
}

// meshPoint is a synthetic pattern on the paper's standard mesh: 8×8, XY,
// static VA.
func meshPoint(s core.Scheme, syn noc.Synthetic) point {
	return point{
		Experiment: noc.Experiment{Topology: topology.NewMesh(8, 8), Scheme: s, Routing: routing.XY, Policy: vcalloc.Static},
		traffic:    func(e noc.Experiment) noc.Workload { return e.SyntheticWorkload(syn) },
	}
}

// each completes every point with the run protocol, builds its network and
// workload on the forEach worker pool and hands them to fn, which runs them
// and may inspect the live network afterwards; fn writes only to its own
// index. Progress ticks once per point.
func (o Options) each(points []point, fn func(i int, e noc.Experiment, n *noc.Network, w noc.Workload)) {
	tick := o.progress(len(points))
	forEach(len(points), func(i int) {
		e := points[i].Experiment
		e.Seed, e.Warmup, e.Measure = o.Seed, o.Warmup, o.Measure
		fn(i, e, e.Build(), points[i].traffic(e))
		tick()
	})
}

// run simulates every point under the standard warmup/measure protocol and
// returns the results in point order.
func (o Options) run(points []point) []noc.Result {
	out, _ := o.runTotals(points)
	return out
}

// runTotals is run that also returns, beside each Result, the router-counter
// totals of the same measured window: the rates a Result does not carry
// (header reuse, header bypass), read without adding a field to it — which
// would move every result digest and store key.
func (o Options) runTotals(points []point) ([]noc.Result, []stats.Totals) {
	out, tot := make([]noc.Result, len(points)), make([]stats.Totals, len(points))
	o.each(points, func(i int, e noc.Experiment, n *noc.Network, w noc.Workload) {
		out[i] = e.RunOn(n, w)
		tot[i] = n.Registry().Totals()
	})
	return out, tot
}

// censusRows label a .misses table's rows: the hits, then each miss class
// of the census (stats.MissClass).
var censusRows = append([]string{"hit (rode a circuit or bypassed)"}, stats.MissClassNames[:]...)

// census returns t's header traversals as shares by censusRows; they sum
// to one.
func census(t stats.Totals) []float64 {
	out := []float64{t.HeadReuseRate()}
	for c := range stats.NumMissClasses {
		out = append(out, t.MissRate(c))
	}
	return out
}

// rowsOf splits a row-major grid into its rows of n; applied again it
// groups the rows of the next dimension out.
func rowsOf[T any](xs []T, n int) [][]T {
	rows := make([][]T, 0, len(xs)/n)
	for ; len(xs) > 0; xs = xs[n:] {
		rows = append(rows, xs[:n])
	}
	return rows
}

// seriesTable renders rows × series: a header of corner then the series
// names, one row per label with cell(row, s) under each series and, when
// lastCell is not nil, a closing row (an average, a gain) under lastLabel.
func seriesTable(id, title, corner string, rows, series []string, cell func(row, s int) string, lastLabel string, lastCell func(s int) string) Table {
	t := Table{ID: id, Title: title, Header: append([]string{corner}, series...)}
	line := func(label string, cell func(s int) string) {
		r := []string{label}
		for s := range series {
			r = append(r, cell(s))
		}
		t.Rows = append(t.Rows, r)
	}
	for i, label := range rows {
		line(label, func(s int) string { return cell(i, s) })
	}
	if lastCell != nil {
		line(lastLabel, lastCell)
	}
	return t
}

// meshGrid renders one cell per router of a kx×ky mesh: row y, column x,
// router y*kx+x.
func meshGrid(id, title string, kx, ky int, cell func(router int) string) Table {
	t := Table{ID: id, Title: title, Header: []string{"y\\x"}}
	for x := 0; x < kx; x++ {
		t.Header = append(t.Header, fmt.Sprintf("x=%d", x))
	}
	for y := 0; y < ky; y++ {
		row := []string{fmt.Sprintf("%d", y)}
		for x := 0; x < kx; x++ {
			row = append(row, cell(y*kx+x))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
