// Package core implements the paper's primary contribution: the
// pseudo-circuit scheme (§3) and its two aggressive extensions,
// pseudo-circuit speculation and buffer bypassing (§4).
//
// A pseudo-circuit is a crossbar connection (input port → output port) left
// configured after a flit traversal, together with the switch-arbitration
// history needed to reuse it: the input VC the previous flit came from and
// the output port it went to, held in a per-input-port register (Fig. 3).
// A later flit arriving on the same input VC whose lookahead routing
// information matches the stored output port traverses the crossbar without
// switch arbitration, removing one pipeline stage. With buffer bypassing it
// also skips the buffer-write stage, removing a second.
//
// This package holds that logic: RegFile is one router's register pairs,
// history registers and comparator, with the only four operations that write
// them (connect, connect speculatively, terminate, clear), over storage the
// router carves from its network's slab (InitRegFile); Scheme and Options
// select what the pipeline does with them. The router package calls RegFile
// from its pipeline phases and writes no pseudo-circuit state of its own.
package core

import (
	"fmt"
	"math/bits"
)

// LaneLimit bounds VCs per port and ports per router: occupancy and
// arbitration masks are single uint64 words, and a port or VC id, with -1 for
// none, fits the int8 the router keeps it in.
const LaneLimit = 64

// DepthLimit bounds BufDepth: a buffer fill and a credit count, 0 through the
// depth, fit the int16 the router keeps them in.
const DepthLimit = 1<<15 - 1

// Scheme selects which of the paper's schemes is active. The four evaluated
// configurations are Baseline (all false), Pseudo, Pseudo+S, Pseudo+B and
// Pseudo+S+B.
type Scheme struct {
	// Pseudo enables pseudo-circuit creation/reuse (SA bypass), paper §3.
	Pseudo bool
	// Speculation enables pseudo-circuit speculation (§4.A). Implies Pseudo.
	Speculation bool
	// BufferBypass enables buffer bypassing (§4.B). Implies Pseudo.
	BufferBypass bool
}

// The paper's five evaluated configurations.
var (
	Baseline = Scheme{}
	Pseudo   = Scheme{Pseudo: true}
	PseudoS  = Scheme{Pseudo: true, Speculation: true}
	PseudoB  = Scheme{Pseudo: true, BufferBypass: true}
	PseudoSB = Scheme{Pseudo: true, Speculation: true, BufferBypass: true}
)

// Schemes lists the evaluated configurations in the paper's plotting order.
var Schemes = []Scheme{Baseline, Pseudo, PseudoS, PseudoB, PseudoSB}

// String returns the paper's label for the scheme.
func (s Scheme) String() string {
	switch {
	case !s.Pseudo:
		return "Baseline"
	case s.Speculation && s.BufferBypass:
		return "Pseudo+S+B"
	case s.Speculation:
		return "Pseudo+S"
	case s.BufferBypass:
		return "Pseudo+B"
	default:
		return "Pseudo"
	}
}

// Validate reports configuration errors (aggressive schemes without the base
// scheme).
func (s Scheme) Validate() error {
	if !s.Pseudo && (s.Speculation || s.BufferBypass) {
		return fmt.Errorf("core: scheme %+v enables an aggressive scheme without Pseudo", s)
	}
	return nil
}

// Options is what a router is configured with: the scheme alone. One reading
// of §3.C and §4.A is modelled, the paper's: a circuit ends when its output
// runs out of credit, speculation never revives a circuit to such an output,
// and an SA grant preempts a circuit. DESIGN.md §7 records the readings that
// were measured against it and removed.
type Options struct {
	Scheme
}

// DefaultOptions returns the paper's configuration for the given scheme.
func DefaultOptions(s Scheme) Options { return Options{Scheme: s} }

// RegFile is the pseudo-circuit state of one router and the only code that
// writes it: per input port the register pair of Fig. 3 (a) with its valid
// bit, per output port the history register of Fig. 5 (b), and the three
// derived structures that keep the router's scans proportional to live and
// revivable circuits (DESIGN.md §17 prices each). The slices are laid over
// storage the router carves (InitRegFile), indexed by router-local port; the
// router reads them freely and mutates them through the four methods below,
// which is what keeps the derived structures in step. Check verifies that.
type RegFile struct {
	// Per input port: input VC and output port of the most recent crossbar
	// connection through it. Termination clears only the valid bit, leaving the
	// pair intact so speculation can reconnect the circuit (§3.C, §4.A). Spec
	// marks a circuit speculation created, for accounting only. Ports and VCs
	// are stored as int8, -1 for none (LaneLimit); the methods take and return
	// int.
	InVC []int8
	Out  []int8
	Spec []bool

	// Per output port: the input port of the most recent pseudo-circuit
	// through it, which settles which of several registers pointing at one
	// idle output speculation reconnects.
	HistIn []int8
	// ByOut[out] is the input port holding a valid circuit to out, -1 when
	// none; the termination rules allow at most one. Derived from the
	// registers and their valid bits.
	ByOut []int8

	// ValidMask is the register pairs' valid bits themselves (bit in), the
	// only record of them. HistMask and HeldMask are derived, one bit per
	// output: HistMask bit out ⇔ HistIn[out] = in >= 0 and Out[in] = out —
	// the history register's valid bit, cleared when the input it names
	// connects elsewhere or is cleared, so exactly the outputs speculation has
	// a circuit to revive; HeldMask bit out ⇔ ByOut[out] >= 0.
	ValidMask uint64
	HistMask  uint64
	HeldMask  uint64
}

// RegFileBytes is the int8 storage a register file of nIn input and nOut
// output ports is laid over: a register pair per input, a history register and
// a ByOut entry per output.
func RegFileBytes(nIn, nOut int) int { return 2*nIn + 2*nOut }

// InitRegFile lays an empty register file over storage its caller carved:
// bytes of RegFileBytes(nIn, nOut) int8s and spec of nIn bools. Every
// register, history register and ByOut entry reads -1, and each slice is
// capped at its own end. f is zero, as the slab hands it out, and is set in
// place.
func InitRegFile(f *RegFile, nIn, nOut int, bytes []int8, spec []bool) {
	for i := range bytes {
		bytes[i] = -1
	}
	clear(spec)
	cut := func(n int) []int8 {
		c := bytes[:n:n]
		bytes = bytes[n:]
		return c
	}
	f.InVC, f.Out, f.Spec = cut(nIn), cut(nIn), spec[:nIn:nIn]
	f.HistIn, f.ByOut = cut(nOut), cut(nOut)
}

// Valid reports input port in's valid bit.
func (f *RegFile) Valid(in int) bool { return f.ValidMask>>uint(in)&1 != 0 }

// Match is the pseudo-circuit comparator: may a flit on input VC vc of input
// port in, destined for output port out, reuse the port's circuit? The
// hardware comparator (37 ps at 45 nm) fits within the ST stage, so matching
// costs no extra cycle.
func (f *RegFile) Match(in, vc, out int) bool {
	return f.Valid(in) && int(f.InVC[in]) == vc && int(f.Out[in]) == out
}

// Connect records the crossbar traversal (in, vc) → out: the register is
// rewritten, valid and non-speculative (§3.B), any other input's circuit on
// out is terminated, and out's history register names in. created reports
// that the flit did not already match the circuit, displaced that another
// input's circuit was terminated. A flit riding a live non-speculative circuit
// writes nothing: what the Connect that made it wrote (HistIn[out],
// ByOut[out], the mask bits) holds while it is valid. A speculative match
// clears Spec.
func (f *RegFile) Connect(in, vc, out int) (created, displaced bool) {
	if created = !f.Match(in, vc, out); !created && !f.Spec[in] {
		return false, false
	}
	if j := int(f.ByOut[out]); j >= 0 && j != in {
		f.Terminate(j)
		displaced = true
	}
	if old := int(f.Out[in]); old >= 0 && old != out {
		if f.Valid(in) {
			f.release(old)
		}
		f.forget(in, old)
	}
	f.set(in, vc, out, false)
	f.HistIn[out] = int8(in)
	f.HistMask |= 1 << uint(out)
	return created, displaced
}

// ConnectSpeculative reconnects the most recent circuit through the idle
// output port out (§4.A): the register pair of the input its history register
// names, which still points at out. It reports false, changing nothing, when
// out holds a circuit or its history register is not valid.
func (f *RegFile) ConnectSpeculative(out int) bool {
	if (f.HistMask&^f.HeldMask)>>uint(out)&1 == 0 {
		return false
	}
	in := int(f.HistIn[out])
	f.set(in, int(f.InVC[in]), out, true)
	return true
}

// Terminate disconnects input port in's valid circuit, leaving the register
// pair for speculation to reconnect (§3.C).
func (f *RegFile) Terminate(in int) {
	f.ValidMask &^= 1 << uint(in)
	f.release(int(f.Out[in]))
}

// Clear tears input port in's circuit down completely (fault teardown): the
// valid bit, the register pair and the history register's valid bit that
// names it are all reset, valid or not, so no speculation path can reconnect
// it — the crossbar state it describes may be wrong when the link returns.
func (f *RegFile) Clear(in int) {
	if out := int(f.Out[in]); out >= 0 {
		if f.Valid(in) {
			f.Terminate(in)
		}
		f.forget(in, out)
	}
	f.InVC[in], f.Out[in] = -1, -1
	f.Spec[in] = false
}

func (f *RegFile) set(in, vc, out int, spec bool) {
	f.InVC[in], f.Out[in], f.Spec[in] = int8(vc), int8(out), spec
	f.ValidMask |= 1 << uint(in)
	f.ByOut[out] = int8(in)
	f.HeldMask |= 1 << uint(out)
}

func (f *RegFile) release(out int) {
	f.ByOut[out] = -1
	f.HeldMask &^= 1 << uint(out)
}

// forget clears out's history bit if its register names in, whose pair is
// about to stop pointing at out.
func (f *RegFile) forget(in, out int) {
	if int(f.HistIn[out]) == in {
		f.HistMask &^= 1 << uint(out)
	}
}

// Check verifies the derived structures against the registers: every valid
// bit sits on a written register pair, ByOut and HeldMask name exactly the
// outputs those pairs hold, and with them no two inputs hold a circuit to one
// output; HistMask names exactly the outputs whose history register points at
// an input whose register pair still points back.
func (f *RegFile) Check() error {
	for m := f.ValidMask; m != 0; m &= m - 1 {
		if in := bits.TrailingZeros64(m); in >= len(f.Out) || f.Out[in] < 0 {
			return fmt.Errorf("ValidMask %b: input %d has no register pair to validate", f.ValidMask, in)
		}
	}
	var held uint64
	for out := range f.ByOut {
		holder := -1
		for in := range f.Out {
			if f.Valid(in) && int(f.Out[in]) == out {
				if holder >= 0 {
					return fmt.Errorf("inputs %d and %d both hold a pseudo-circuit to output %d", holder, in, out)
				}
				holder = in
			}
		}
		if holder != int(f.ByOut[out]) {
			return fmt.Errorf("ByOut[%d] = %d, registers say %d", out, f.ByOut[out], holder)
		}
		if holder >= 0 {
			held |= 1 << uint(out)
		}
	}
	if held != f.HeldMask {
		return fmt.Errorf("HeldMask %b, ByOut says %b", f.HeldMask, held)
	}
	var hist uint64
	for out, in := range f.HistIn {
		if in >= 0 && int(f.Out[in]) == out {
			hist |= 1 << uint(out)
		}
	}
	if hist != f.HistMask {
		return fmt.Errorf("HistMask %b, HistIn and the register pairs say %b", f.HistMask, hist)
	}
	return nil
}
