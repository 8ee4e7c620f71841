// Command tracegen extracts packet traces from the CMP substrate (the way
// the paper extracts traces from its full-system simulator), inspects
// existing traces, and replays them through a network configuration.
//
// Examples:
//
//	tracegen -benchmark fma3d -cycles 20000 -out fma3d.trace
//	tracegen -inspect fma3d.trace
//	tracegen -replay fma3d.trace -scheme pseudo+s+b
package main

import (
	"flag"
	"fmt"
	"os"

	"pseudocircuit/internal/cmp"
	"pseudocircuit/internal/core"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/trace"
	"pseudocircuit/internal/vcalloc"
	"pseudocircuit/noc"
)

func main() {
	var (
		benchmark = flag.String("benchmark", "fma3d", "CMP benchmark profile to trace")
		cycles    = flag.Int("cycles", 20000, "cycles to simulate while recording")
		out       = flag.String("out", "", "output trace file (generation mode)")
		inspect   = flag.String("inspect", "", "trace file to summarize")
		replay    = flag.String("replay", "", "trace file to replay")
		scheme    = flag.String("scheme", "pseudo+s+b", "scheme for replay")
		seed      = flag.Uint64("seed", 1, "seed")
	)
	flag.Parse()

	switch {
	case *inspect != "":
		inspectTrace(*inspect)
	case *replay != "":
		replayTrace(*replay, *scheme, *seed)
	case *out != "":
		generate(*benchmark, *cycles, *out, *seed)
	default:
		fmt.Fprintln(os.Stderr, "tracegen: one of -out, -inspect, -replay is required")
		os.Exit(1)
	}
}

func generate(benchmark string, cycles int, out string, seed uint64) {
	prof, ok := cmp.ProfileByName(benchmark)
	if !ok {
		fatal("unknown benchmark %q", benchmark)
	}
	topo := topology.NewCMesh(4, 4, 4)
	n := network.New(network.DefaultConfig(topo))
	w := cmp.New(topo, cmp.PaperTableI(), prof, sim.NewRNG(seed))

	f, err := os.Create(out)
	if err != nil {
		fatal("creating %s: %v", out, err)
	}
	defer f.Close()
	tw, err := trace.NewWriter(f, topo.Nodes())
	if err != nil {
		fatal("writing header: %v", err)
	}
	rec := &trace.Recorder{Inner: w, W: tw}
	n.Run(rec, cycles)
	if rec.Err() != nil {
		fatal("recording: %v", rec.Err())
	}
	if err := tw.Flush(); err != nil {
		fatal("flushing: %v", err)
	}
	fmt.Printf("recorded %d packets over %d cycles of %s to %s\n", tw.Count(), cycles, benchmark, out)
}

func inspectTrace(path string) {
	recs, nodes := readAll(path)
	if len(recs) == 0 {
		fmt.Println("empty trace")
		return
	}
	perClass := map[string]int{}
	flits := 0
	for _, r := range recs {
		perClass[r.Class.String()]++
		flits += r.Size
	}
	span := recs[len(recs)-1].Cycle - recs[0].Cycle + 1
	fmt.Printf("%s: %d nodes, %d packets, %d flits over %d cycles (%.4f flits/node/cycle)\n",
		path, nodes, len(recs), flits, span, float64(flits)/float64(span)/float64(nodes))
	for class, cnt := range map[string]int(perClass) {
		fmt.Printf("  %-5s %d\n", class, cnt)
	}
}

func replayTrace(path, schemeName string, seed uint64) {
	recs, nodes := readAll(path)
	topo := topology.NewCMesh(4, 4, 4)
	if topo.Nodes() != nodes {
		fatal("trace has %d nodes; replay topology has %d", nodes, topo.Nodes())
	}
	cfg := network.DefaultConfig(topo)
	scheme, err := noc.ParseScheme(schemeName)
	if err != nil {
		fatal("%v", err)
	}
	cfg.Opts = core.DefaultOptions(scheme)
	cfg.Algorithm = routing.XY
	cfg.Policy = vcalloc.Static
	cfg.Seed = seed
	n := network.New(cfg)
	p := trace.NewPlayer(recs)
	if !n.Drain(p, 100*len(recs)+100000) {
		fatal("replay did not drain")
	}
	fmt.Printf("replayed %d packets: %v\n", len(recs), n.Stats.Summary(n.Registry().Totals()))
}

func readAll(path string) ([]trace.Record, int) {
	f, err := os.Open(path)
	if err != nil {
		fatal("opening %s: %v", path, err)
	}
	defer f.Close()
	tr, err := trace.NewReader(f)
	if err != nil {
		fatal("reading header: %v", err)
	}
	recs, err := tr.ReadAll()
	if err != nil {
		fatal("reading records: %v", err)
	}
	return recs, tr.Nodes()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(1)
}
