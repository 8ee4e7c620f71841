// Structure-of-arrays backing store for the router hot path.
//
// The per-cycle kernel spends most of its time scanning per-(port, VC) state:
// admitting heads, allocating VCs, classifying pseudo-circuit candidates and
// SA requests, and maintaining pseudo-circuits. With per-object Go structs
// (one heap object per input port, one per VC) every scan is a pointer chase;
// LaneStore flattens all of it into contiguous slices indexed by
// (router, port, vc) so the scans are cache-linear and the pseudo-circuit
// comparator inputs (the register file of Fig. 3, RegFile) are one flat array
// walked in a single pass per router.
//
// Index scheme (DESIGN.md §17):
//
//	input-port index  p = InBase[r] + in            (global, contiguous per router)
//	output-port index q = OutBase[r] + out
//	input lane        l = p*NumVCs + vc
//	output lane       m = q*NumVCs + vc
//
// InBase/OutBase are prefix sums over the topology's per-router radices, so a
// router's lanes form one contiguous range and the routers' ranges follow one
// another in router order.
//
// The network owns exactly one LaneStore per simulated network and hands it
// to routers through their shared config; a router constructed without one
// (unit tests driving a single router) builds a private single-router store.
// The naive reference kernel needs no separate code: it is the same router
// ticking over the same store, only scheduled tick-every-router by the
// network, so the accessor seam (all mutations go through the router's lane
// helpers) is exercised identically by both schedules.
package core

import "fmt"

// LaneLimit bounds VCs per port and ports per router: occupancy and
// arbitration masks are single uint64 words, and a port or VC id, with -1 for
// none, fits the int8 the store keeps it in.
const LaneLimit = 64

// DepthLimit bounds BufDepth: a buffer fill and a credit count, 0 through the
// depth, fit the int16 the store keeps them in.
const DepthLimit = 1<<15 - 1

// LaneStore is the flat hot-path state of every router in one network. All
// slices are preallocated at construction; the steady-state tick path only
// indexes them, never grows them. Each per-lane and per-port record is stored
// in the width its values need (DESIGN.md §17, "State inventory"): int16 for
// a count bounded by DepthLimit, int8 for a port or VC id bounded by
// LaneLimit.
type LaneStore struct {
	NumVCs, BufDepth int

	// InBase[r] / OutBase[r] are router r's first global input/output port
	// indices; the extra final element makes radix lookup a subtraction.
	InBase  []int
	OutBase []int

	// Per input lane l = (InBase[r]+in)*NumVCs + vc — the former vcState. The
	// flits themselves (pointers, FIFO head first) are router-local; nothing
	// in the store is per buffer slot.
	BufLen  []int16 // buffered flits
	OutPort []int8  // the packet's output port, -1 when no packet owns the lane
	OutVC   []int8  // its output VC, -1 awaiting VA

	// Per input port p = InBase[r]+in: the storage of the pseudo-circuit
	// register pairs (Fig. 3 (a); their valid bits are RegFile.ValidMask), plus
	// the two mask words the phase scans are driven by.
	PCInVC []int8
	PCOut  []int8
	PCSpec []bool
	Occ    []uint64 // bit vc set ⇔ BufLen[lane] > 0 (the store's index)
	Act    []uint64 // bit vc set: a packet owns the lane (the only record of it)

	// Per output lane m = (OutBase[r]+out)*NumVCs + vc.
	Credits []int16
	VCBusy  []bool

	// Per output port q = OutBase[r]+out: the storage of the history registers
	// (Fig. 5 (b); their valid bits are RegFile.HistMask) and of the reverse
	// index (router-local input, -1 when none).
	HistIn  []int8
	PCByOut []int8

	// Regs[r] is router r's pseudo-circuit register file: a view of the PC*
	// and Hist* arrays above plus the valid-bit words. The arrays are written
	// through it and nowhere else.
	Regs []RegFile
}

// NewLaneStore builds the store for routers with the given per-router input
// and output radices. All "no value" sentinels are -1; credits start at
// BufDepth (every downstream buffer empty).
func NewLaneStore(numVCs, bufDepth int, inPorts, outPorts []int) *LaneStore {
	if numVCs < 1 || numVCs > LaneLimit || bufDepth < 1 || bufDepth > DepthLimit {
		panic(fmt.Sprintf("core: LaneStore needs NumVCs in [1,%d] and BufDepth in [1,%d], got %d/%d",
			LaneLimit, DepthLimit, numVCs, bufDepth))
	}
	if len(inPorts) != len(outPorts) {
		panic("core: LaneStore radix slices disagree on router count")
	}
	s := &LaneStore{
		NumVCs:   numVCs,
		BufDepth: bufDepth,
		InBase:   make([]int, len(inPorts)+1),
		OutBase:  make([]int, len(outPorts)+1),
	}
	for r, p := range inPorts {
		if p < 1 || p > LaneLimit || outPorts[r] < 1 || outPorts[r] > LaneLimit {
			panic(fmt.Sprintf("core: LaneStore router %d radix %d/%d outside [1,%d]", r, p, outPorts[r], LaneLimit))
		}
		s.InBase[r+1] = s.InBase[r] + p
		s.OutBase[r+1] = s.OutBase[r] + outPorts[r]
	}
	nIn, nOut := s.InBase[len(inPorts)], s.OutBase[len(outPorts)]

	s.BufLen = make([]int16, nIn*numVCs)
	s.OutPort = fill(nIn*numVCs, int8(-1))
	s.OutVC = fill(nIn*numVCs, int8(-1))

	s.PCInVC = fill(nIn, int8(-1))
	s.PCOut = fill(nIn, int8(-1))
	s.PCSpec = make([]bool, nIn)
	s.Occ = make([]uint64, nIn)
	s.Act = make([]uint64, nIn)

	s.Credits = fill(nOut*numVCs, int16(bufDepth))
	s.VCBusy = make([]bool, nOut*numVCs)

	s.HistIn = fill(nOut, int8(-1))
	s.PCByOut = fill(nOut, int8(-1))

	s.Regs = make([]RegFile, len(inPorts))
	for r := range s.Regs {
		i0, i1, o0, o1 := s.InBase[r], s.InBase[r+1], s.OutBase[r], s.OutBase[r+1]
		s.Regs[r] = RegFile{
			InVC: s.PCInVC[i0:i1], Out: s.PCOut[i0:i1], Spec: s.PCSpec[i0:i1],
			HistIn: s.HistIn[o0:o1], ByOut: s.PCByOut[o0:o1],
		}
	}
	return s
}

// RegFile returns router r's register file.
func (s *LaneStore) RegFile(r int) *RegFile { return &s.Regs[r] }

func fill[T int8 | int16](n int, v T) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// LaneView is one lane materialized back into the struct shape the router
// used before the SoA restructure — the "struct view" side of the layout
// round-trip tests and a debugging aid. It is assembled on demand and never
// used on the hot path.
type LaneView struct {
	BufLen  int
	Active  bool
	OutPort int
	OutVC   int
}

// View materializes the lane of global input port p, VC vc.
func (s *LaneStore) View(p, vc int) LaneView {
	l := p*s.NumVCs + vc
	return LaneView{
		BufLen:  int(s.BufLen[l]),
		Active:  s.Act[p]>>uint(vc)&1 != 0,
		OutPort: int(s.OutPort[l]),
		OutVC:   int(s.OutVC[l]),
	}
}

// CheckConsistency verifies every derived structure against the records it is
// derived from for the router whose ports are [inBase, inBase+nIn) and
// [outBase, outBase+nOut): the occupancy index against BufLen, and the
// register file's own check. It returns a descriptive error rather than
// panicking so tests can attribute failures.
func (s *LaneStore) CheckConsistency(router, inBase, nIn, outBase, nOut int) error {
	for in := 0; in < nIn; in++ {
		p := inBase + in
		var occ uint64
		for vc := 0; vc < s.NumVCs; vc++ {
			if s.BufLen[p*s.NumVCs+vc] > 0 {
				occ |= 1 << uint(vc)
			}
		}
		if occ != s.Occ[p] {
			return fmt.Errorf("router %d in %d: occ mask %b, buffers say %b", router, in, s.Occ[p], occ)
		}
	}
	if err := s.Regs[router].Check(); err != nil {
		return fmt.Errorf("router %d: %w", router, err)
	}
	return nil
}
