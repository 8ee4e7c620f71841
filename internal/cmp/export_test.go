package cmp

// CoreStalls returns per-core MSHR-full stall cycles (self-throttling
// diagnostics).
func (w *Workload) CoreStalls() []uint64 {
	out := make([]uint64, len(w.cores))
	for i, c := range w.cores {
		out[i] = c.stallCycles
	}
	return out
}
