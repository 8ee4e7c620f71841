package cmp

// Writebacks returns posted write-back packets scheduled so far
// (write-back protocol only).
func (w *Workload) Writebacks() uint64 { return w.writebacks }

// BankRequests returns per-bank request counts (hotspot diagnostics).
func (w *Workload) BankRequests() []uint64 {
	out := make([]uint64, len(w.banks))
	for i, b := range w.banks {
		out[i] = b.requests
	}
	return out
}

// CoreStalls returns per-core MSHR-full stall cycles (self-throttling
// diagnostics).
func (w *Workload) CoreStalls() []uint64 {
	out := make([]uint64, len(w.cores))
	for i, c := range w.cores {
		out[i] = c.stallCycles
	}
	return out
}
