// Trace replay: the paper's methodology end-to-end in one program —
// extract a packet trace from the CMP platform (as the authors extract
// traces from their full-system simulator), then replay the *same* trace
// open-loop through every scheme for a perfectly controlled comparison.
//
// Run with: go run ./examples/tracereplay [benchmark]
package main

import (
	"bytes"
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
)

func main() {
	benchmark := "fft"
	if len(os.Args) > 1 {
		benchmark = os.Args[1]
	}
	prof, ok := cmp.ProfileByName(benchmark)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q (try: %v)\n", benchmark, allNames())
		os.Exit(1)
	}

	// 1. Extract: run the CMP on a baseline network, recording every
	// injected packet.
	topo := topology.NewCMesh(4, 4, 4)
	rec := network.New(network.DefaultConfig(topo))
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, topo.Nodes())
	if err != nil {
		panic(err)
	}
	w := cmp.New(topo, cmp.PaperTableI(), prof, sim.NewRNG(1))
	recorder := &trace.Recorder{Inner: w, W: tw}
	rec.Run(recorder, 15000)
	if err := tw.Flush(); err != nil {
		panic(err)
	}
	fmt.Printf("extracted %d packets from %s (%d bytes on the wire format)\n\n",
		tw.Count(), benchmark, buf.Len())

	// 2. Replay the identical trace through each scheme.
	tr, err := trace.NewReader(&buf)
	if err != nil {
		panic(err)
	}
	recs, err := tr.ReadAll()
	if err != nil {
		panic(err)
	}

	fmt.Printf("%-12s %10s %8s %8s %8s\n", "scheme", "net lat", "p95", "reuse", "bypass")
	for _, scheme := range core.Schemes {
		cfg := network.DefaultConfig(topology.NewCMesh(4, 4, 4))
		cfg.Opts = core.DefaultOptions(scheme)
		cfg.Algorithm = routing.XY
		cfg.Policy = vcalloc.Static
		n := network.New(cfg)
		p := trace.NewPlayer(recs)
		if !n.Drain(p, 50*len(recs)+100000) {
			panic("replay did not drain")
		}
		s, t := n.Stats, n.Registry().Totals()
		_, p95, _ := s.LatencyHist.Quantiles()
		fmt.Printf("%-12v %10.2f %8d %7.1f%% %7.1f%%\n",
			scheme, s.AvgNetLatency(), p95, 100*t.Reusability(), 100*t.BypassRate())
	}
	fmt.Println("\nSame packets, same timing — only the router scheme differs.")
}

func allNames() []string {
	var out []string
	for _, p := range cmp.Profiles() {
		out = append(out, p.Name)
	}
	return out
}
