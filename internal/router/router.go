// Package router implements the cycle-accurate pipelined virtual-channel
// router the paper builds on (§3.A, Peh & Dally's speculative router) and
// integrates the pseudo-circuit datapath from internal/core.
//
// Pipeline (paper Fig. 6; one stage per cycle, LT handled by the network):
//
//	baseline flit:            BW | VA+SA (speculative, retried) | ST | LT
//	pseudo-circuit hit:       BW | PC-compare + ST              | LT
//	hit with buffer bypass:   PC-compare + ST                   | LT
//
// Within a simulated cycle the router processes, in order:
//
//  1. ST for switch-arbitration grants issued last cycle.
//  2. Head-of-VC bookkeeping and VC allocation (VA), performed independently
//     of SA so pseudo-circuit flits can traverse while VA proceeds (§3.B).
//  3. Classification of head flits into pseudo-circuit candidates and SA
//     requests; pseudo-circuit traversal (PC + ST) for candidates no SA
//     request conflicts with (starvation freedom, §3.C).
//  4. Switch arbitration (separable, round-robin, credit-gated); grants
//     reserve the crossbar for next cycle, terminate conflicting
//     pseudo-circuits, and cost arbiter energy.
//  5. Pseudo-circuit maintenance: credit-exhaustion termination (§3.C) and
//     speculation (§4.A).
//  6. Arrivals: buffer write, or buffer bypass + ST when a connected
//     pseudo-circuit matches and the VC buffer is empty (§4.B).
//
// All cross-router communication (flits, credits) is mediated by callbacks
// with at least one cycle of latency, so routers may tick in any order.
//
// This is the only VC-router pipeline in the repository. A rival scheme is a
// Policy installed on it (internal/evc is the first): the pipeline calls the
// policy at four nil-guarded sites — a phase 0 ahead of ST, the VA pick, a
// stamp on every traversing flit, and the fault-teardown test — and owns
// everything else (DESIGN.md §17).
//
// Hot-path state is carved from the network's Slab, one allocation per kind
// for every router (DESIGN.md §17): per-(port, vc) lane metadata, per-port
// occupancy masks, per-output credits and the pseudo-circuit registers are
// contiguous router-local slices the phases below walk linearly, with the
// occupancy masks letting every scan skip empty lanes without touching them.
// Every fact has one record (DESIGN.md §17, "State inventory"):
// lane mutations go through the lane helper methods, which keep the occupancy
// index, the VA mask and the port words in step with it; the pseudo-circuit
// registers and everything derived from them are core.RegFile's, which this
// package reads but never writes. CheckInvariants verifies both.
package router

import (
	"fmt"
	"math/bits"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/fault"
	"pseudocircuit/internal/flit"
	"pseudocircuit/internal/obs"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/stats"
	"pseudocircuit/internal/vcalloc"
)

// SendFunc delivers a flit leaving output port out of router id; the network
// resolves the link, performs lookahead routing, and schedules the arrival.
type SendFunc func(id, out int, f *flit.Flit)

// CreditFunc returns one credit for (input port in, VC vc) of router id to
// whatever feeds that port (upstream router or NI), with one cycle latency.
type CreditFunc func(id, in, vc int)

// Config carries the parameters shared by every router in a network.
type Config struct {
	NumVCs   int
	BufDepth int
	Opts     core.Options
	Alloc    *vcalloc.Allocator
	Send     SendFunc
	Credit   CreditFunc
	// Slab is the network-owned store every router carves its state from.
	// nil builds a private single-router slab (unit tests).
	Slab *Slab
	// Reg holds every router's row of event counters. A router counts each
	// event once, into its own row and nowhere else; network-wide figures and
	// energy are sums of rows taken on read.
	Reg *stats.Registry
	// Trace enables flit-lifecycle event recording when non-nil.
	Trace *obs.Tracer
	// Faults is the network's fault view, nil when no fault schedule is
	// configured. It changes only in the kernel's main phase, so its answers
	// are constant through a cycle's router ticks.
	Faults *fault.State
	// Routing is the network's routing engine; a router asks it for a detour
	// when the output its packet was routed to has died.
	Routing *routing.Engine
	// Stages, when non-nil, times every phase of every Tick (StageClock).
	Stages *StageClock
}

// reservation is a switch-arbitration grant: flit at (in, vc) traverses to
// out next cycle. Ports and VCs are int8 (core.LaneLimit).
type reservation struct {
	f           *flit.Flit
	in, vc, out int8
}

// Why an input's circuit was last terminated (Router.cause).
const (
	termOutput int8 = iota // an SA grant took its output
	termInput              // an SA grant on its own input
	termCredit             // its output ran out of credit
	termFault              // a fault cleared it
)

// saRequest is one lane's request for output out.
type saRequest struct {
	in, vc, out int8
}

// Policy is the scheme seam of the pipeline: what a rival flow-control
// scheme changes about a speculative VC router, and nothing else. The hook
// sites, in Tick order, are below; a router without a policy pays one
// predictable nil test at each. A policy usually embeds the *Router it is
// installed on and shadows DeliverCredit when its credits need relaying.
type Policy interface {
	// Latch is phase 0, ahead of ST for last cycle's grants: the policy may
	// Forward flits staged by Deliver (StagedMask names their ports) straight
	// through the crossbar. What it forwards owns its crossbar ports this
	// cycle, so a grant for the same output is preempted (counted in
	// Preemptions) and re-arbitrates — which is why the latch has to run before
	// ST, not beside the arrivals phase. A tick with nothing staged does not
	// call it.
	Latch(now sim.Cycle)
	// PickVC is the VA decision for a header bound for output port out of a
	// packet to dst in routing class class: the output VC to allocate, or -1
	// to retry next cycle. busy and credits are the port's per-VC state;
	// eject marks a terminal port, whose VCs are neither busy nor credited.
	PickVC(out, dst, class int, eject bool, busy []bool, credits []int16) int
	// Traversed sees every flit ST moves (never a forwarded one), after
	// f.VC holds its output VC and before the flit is sent.
	Traversed(f *flit.Flit)
	// PathDead extends fault teardown: a packet committed to (out, outVC)
	// is torn down as if link out had died when it reports true.
	PathDead(out, outVC int) bool
}

// Router is one pipelined router instance. All per-(port, vc) state lives in
// regions carved from the network's Slab, indexed in*V+vc (input lanes) and
// out*V+vc (output lanes); see the package comment for the layout.
type Router struct {
	ID  int
	cfg *Config

	nIn, nOut int
	V, D      int // NumVCs, BufDepth

	// Input lanes (len nIn*V), in their chosen widths; depth, flits and route
	// read them as ints.
	bufLen  []int16
	outPort []int8 // -1 when no packet owns the lane
	outVC   []int8 // -1 awaiting VA
	// Flat pointer arrays, same indexing. pkt[l] owns lane l while act holds
	// it: VA and the fault sweeps read it.
	buf []*flit.Flit // lane*D + k, FIFO head at k = 0
	pkt []*flit.Packet

	// Input ports (len nIn): occ is the index of bufLen > 0; act is the
	// record of which lanes a packet owns.
	occ []uint64
	act []uint64
	// va is derived: bit vc ⇔ active lane awaiting VA (outVC < 0).
	va []uint64
	// Derived port words, kept by the lane helpers and read by Tick: bit in ⇔
	// occ[in] != 0, and bit in ⇔ act[in] != 0.
	occPorts, actPorts uint64

	// Output lanes (len nOut*V).
	credits []int16
	vcBusy  []bool
	// dry is derived: bit out ⇔ non-ejection output out has no credit left in
	// any VC. That is §3.C condition 2's "congestion at the downstream router
	// on the output port" — a port-level condition, not a per-VC one: transient
	// exhaustion of one VC inside a streaming packet neither terminates a
	// circuit nor bars speculation (§4.A), because per-flit safety is already
	// enforced by the credit check every traversal performs. The two sites that
	// write a credit keep it: DeliverCredit clears the bit, traverse sets it.
	dry uint64

	// pc is the pseudo-circuit register file (read here, written in core).
	pc *core.RegFile

	// Per-port state: arrival follows buf in the flit region.
	arrival  []*flit.Flit // staged by Deliver for this cycle
	rrVC     []int16      // SA input-arbitration round-robin pointers
	lastOut  []int16      // Fig. 1 temporal-locality measurement
	rrIn     []int16      // SA output-arbitration round-robin pointers
	ejection uint64       // bit out ⇔ out is a terminal (ejection) port

	// Grants, at most one per output: two halves of one region, swapped by Tick.
	res     []reservation // STs to execute this cycle
	nextRes []reservation // grants made this cycle

	// Per-tick scratch, reused across cycles.
	// busyIn: input ports whose crossbar row is in use this cycle, set by
	// executeReservations, Forward and tryBypass. A circuit ride sets no bit:
	// the one later reader, tryBypass, can bypass on a ridden input only
	// through the same circuit, whose output the ride has set in busyOut.
	busyIn  uint64
	busyOut uint64      // output ports whose crossbar column is in use this cycle
	arrMask uint64      // input ports with a staged arrival this cycle
	ports   uint64      // input ports with a buffered flit once ST is done: what phases 2-4 walk
	reqs    []saRequest // at most one per lane, its capacity from New
	chosen  []int16     // per input port: index into reqs selected by input arbitration, -1 none
	pcCand  []int16     // per input port: vc of pseudo-circuit candidate, -1 none

	// pol is the installed scheme policy, nil for the paper's own schemes.
	pol Policy
	// Preemptions counts SA grants displaced by a flit the policy forwarded
	// in phase 0; always zero without a policy.
	Preemptions uint64

	// rs is this router's row in cfg.Reg: the one place its events are
	// counted. tr is the lifecycle tracer, nil (one predictable branch per
	// site) unless tracing is on.
	rs *stats.RouterStats
	tr *obs.Tracer

	// The miss census (DESIGN.md §6), one int8 slab: cause[in] is why input
	// in's circuit was last terminated (a term constant), written at the
	// five termination sites; missL[l] is the class lane l's header took at
	// its first SA grant, -1 until then, counted when it traverses. Last, so
	// that the fields every tick reads keep their places.
	cause []int8
	missL []int8
}

// Slab is the state of every router in one network, one allocation per kind
// (DESIGN.md §17): New carves each router's regions off the front of every
// kind in build order, each region capped at its own end, so no append
// reaches a neighbour's state.
type Slab struct {
	routers []Router
	regs    []core.RegFile
	flits   []*flit.Flit // per router: lane buffers, then the staging latch
	pkt     []*flit.Packet
	i16     []int16       // per router: bufLen, credits, four per input port, rrIn
	i8      []int8        // per router: outPort, outVC, missL, cause, the registers
	words   []uint64      // per router: occ, act, va
	bools   []bool        // per router: vcBusy, the registers' Spec
	resv    []reservation // per router: the two grant halves
	reqs    []saRequest
}

// NewSlab sizes a slab for routers with the given per-router input and output
// radices.
func NewSlab(numVCs, bufDepth int, inPorts, outPorts []int) *Slab {
	if numVCs < 1 || numVCs > core.LaneLimit || bufDepth < 1 || bufDepth > core.DepthLimit {
		panic(fmt.Sprintf("router: Slab needs NumVCs in [1,%d] and BufDepth in [1,%d], got %d/%d",
			core.LaneLimit, core.DepthLimit, numVCs, bufDepth))
	}
	if len(inPorts) != len(outPorts) {
		panic("router: Slab radix slices disagree on router count")
	}
	var in, out int
	for r, p := range inPorts {
		if p < 1 || p > core.LaneLimit || outPorts[r] < 1 || outPorts[r] > core.LaneLimit {
			panic(fmt.Sprintf("router: Slab router %d radix %d/%d outside [1,%d]", r, p, outPorts[r], core.LaneLimit))
		}
		in, out = in+p, out+outPorts[r]
	}
	V := numVCs
	return &Slab{
		routers: make([]Router, len(inPorts)),
		regs:    make([]core.RegFile, len(inPorts)),
		flits:   make([]*flit.Flit, in*(V*bufDepth+1)),
		pkt:     make([]*flit.Packet, in*V),
		i16:     make([]int16, (in+out)*V+4*in+out),
		i8:      make([]int8, 3*in*V+in+core.RegFileBytes(in, out)),
		words:   make([]uint64, 3*in),
		bools:   make([]bool, out*V+in),
		resv:    make([]reservation, 2*out),
		reqs:    make([]saRequest, in*V),
	}
}

// carve cuts the next n elements off *s, capped at their own end.
func carve[T any](s *[]T, n int) []T {
	if n > len(*s) {
		panic("router: slab too small for the routers built from it")
	}
	c := (*s)[:n:n]
	*s = (*s)[n:]
	return c
}

// New constructs a router with the given input and output radix. Ejection
// output ports (terminal side) must be marked afterwards with MarkEjection.
func New(id, inPorts, outPorts int, cfg *Config) *Router {
	if err := cfg.Opts.Validate(); err != nil {
		panic(err)
	}
	// Every slice is carved from the network's slab, or from a one-router slab
	// when there is none. The router is set in place, not copied from a
	// literal, and no list grows once it runs.
	V, D := cfg.NumVCs, cfg.BufDepth
	sl := cfg.Slab
	if sl == nil {
		sl = NewSlab(V, D, []int{inPorts}, []int{outPorts})
	}
	nLane, nOutLane := inPorts*V, outPorts*V
	r := &carve(&sl.routers, 1)[0]
	r.ID, r.cfg, r.nIn, r.nOut, r.V, r.D = id, cfg, inPorts, outPorts, V, D

	r.buf, r.arrival = carve(&sl.flits, nLane*D), carve(&sl.flits, inPorts)
	r.pkt = carve(&sl.pkt, nLane)

	r.bufLen, r.credits = carve(&sl.i16, nLane), carve(&sl.i16, nOutLane)
	r.rrVC, r.lastOut = carve(&sl.i16, inPorts), carve(&sl.i16, inPorts)
	r.chosen, r.pcCand = carve(&sl.i16, inPorts), carve(&sl.i16, inPorts)
	r.rrIn = carve(&sl.i16, outPorts)

	r.outPort, r.outVC = carve(&sl.i8, nLane), carve(&sl.i8, nLane)
	r.missL, r.cause = carve(&sl.i8, nLane), carve(&sl.i8, inPorts)

	r.occ, r.act, r.va = carve(&sl.words, inPorts), carve(&sl.words, inPorts), carve(&sl.words, inPorts)
	r.vcBusy = carve(&sl.bools, nOutLane)

	r.pc = &carve(&sl.regs, 1)[0]
	core.InitRegFile(r.pc, inPorts, outPorts,
		carve(&sl.i8, core.RegFileBytes(inPorts, outPorts)), carve(&sl.bools, inPorts))

	resv := carve(&sl.resv, 2*outPorts)
	r.res, r.nextRes = resv[:0:outPorts], resv[outPorts:outPorts]
	r.reqs = carve(&sl.reqs, nLane)[:0]

	r.rs, r.tr = cfg.Reg.Router(id), cfg.Trace
	for l := range r.outPort {
		r.outPort[l], r.outVC[l] = -1, -1
	}
	for m := range r.credits {
		r.credits[m] = int16(D)
	}
	for i := range r.lastOut {
		r.lastOut[i] = -1
	}
	return r
}

// SetPolicy installs p on a freshly built router. The pseudo-circuit schemes
// stay inline behind Opts.Pseudo and are not policies; combining the two is
// unsupported.
func (r *Router) SetPolicy(p Policy) {
	if r.cfg.Opts.Pseudo {
		panic("router: a policy rides the baseline pipeline; Opts.Pseudo must be off")
	}
	r.pol = p
}

// MarkEjection flags output port out as a terminal (ejection) port: VC state
// and credits are unconstrained because the receiver NI sinks flits at link
// rate.
func (r *Router) MarkEjection(out int) { r.ejection |= 1 << uint(out) }

// ejects reports whether output port out is a terminal port.
func (r *Router) ejects(out int) bool { return r.ejection>>uint(out)&1 != 0 }

// --- lane helpers: the accessor seam ----------------------------------------
//
// Every mutation of a lane's record flows through these, which keeps the
// occupancy index, the VA mask and the two port words consistent with it by
// construction. They and the three readers below are where the records' narrow
// widths meet the int arithmetic of the phases.

// depth returns the number of flits buffered in lane l.
func (r *Router) depth(l int) int { return int(r.bufLen[l]) }

// flits returns lane l's buffered flits, head first.
func (r *Router) flits(l int) []*flit.Flit { return r.buf[l*r.D : l*r.D+r.depth(l)] }

// route returns lane l's output port and output VC, each -1 when unset.
func (r *Router) route(l int) (out, ov int) { return int(r.outPort[l]), int(r.outVC[l]) }

// pushBuf appends a flit to lane (in, vc) and returns the new depth.
func (r *Router) pushBuf(in, vc int, f *flit.Flit) int {
	l := in*r.V + vc
	n := r.depth(l)
	r.buf[l*r.D+n] = f
	r.bufLen[l] = int16(n + 1)
	r.occ[in] |= 1 << uint(vc)
	r.occPorts |= 1 << uint(in)
	return n + 1
}

// popHead removes the head flit of lane (in, vc), counting the buffer read.
// The shift is a manual loop: buffers are a handful of flits deep, where
// memmove call overhead exceeds the moves themselves.
func (r *Router) popHead(in, vc int) {
	l := in*r.V + vc
	b := l * r.D
	n := r.depth(l)
	for k := b; k < b+n-1; k++ {
		r.buf[k] = r.buf[k+1]
	}
	r.bufLen[l] = int16(n - 1)
	if n == 1 {
		if r.occ[in] &^= 1 << uint(vc); r.occ[in] == 0 {
			r.occPorts &^= 1 << uint(in)
		}
	}
	r.rs.BufReads++
}

// removeBufAt unlinks buffer slot k of lane (in, vc) (fault purge only).
func (r *Router) removeBufAt(in, vc, k int) {
	l := in*r.V + vc
	b := l * r.D
	n := r.depth(l)
	for j := b + k; j < b+n-1; j++ {
		r.buf[j] = r.buf[j+1]
	}
	r.bufLen[l] = int16(n - 1)
	if n == 1 {
		if r.occ[in] &^= 1 << uint(vc); r.occ[in] == 0 {
			r.occPorts &^= 1 << uint(in)
		}
	}
}

// active reports whether a packet owns lane (in, vc).
func (r *Router) active(in, vc int) bool { return r.act[in]>>uint(vc)&1 != 0 }

// resetLane releases lane (in, vc) after a tail traversal or a purge.
func (r *Router) resetLane(in, vc int) {
	l := in*r.V + vc
	r.outPort[l] = -1
	r.outVC[l] = -1
	r.pkt[l] = nil
	if r.act[in] &^= 1 << uint(vc); r.act[in] == 0 {
		r.actPorts &^= 1 << uint(in)
	}
	r.va[in] &^= 1 << uint(vc)
}

// -----------------------------------------------------------------------------

// Deliver stages a flit arriving on input port in this cycle. The network
// calls it before Tick; at most one flit per input port per cycle (link
// bandwidth).
func (r *Router) Deliver(in int, f *flit.Flit) {
	if r.arrival[in] != nil {
		panic(fmt.Sprintf("router %d: two flits on input port %d in one cycle", r.ID, in))
	}
	r.arrival[in] = f
	r.arrMask |= 1 << uint(in)
}

// Staged returns the flit Deliver staged on input port in this cycle, nil
// when there is none or a policy already forwarded it.
func (r *Router) Staged(in int) *flit.Flit { return r.arrival[in] }

// StagedMask returns the input ports Staged has a flit for: bit in ⇔
// Staged(in) != nil.
func (r *Router) StagedMask() uint64 { return r.arrMask }

// Forward sends the flit staged on input port in straight out of output port
// out (Policy.Latch only): one crossbar traversal in the flit's arrival cycle
// that touches no buffer, VC or credit state and claims both crossbar ports.
func (r *Router) Forward(now sim.Cycle, in, out int) {
	f := r.arrival[in]
	r.arrival[in] = nil
	r.arrMask &^= 1 << uint(in)
	r.busyIn |= 1 << uint(in)
	r.busyOut |= 1 << uint(out)
	r.rs.In[in].Traversals++
	r.rs.OutSends[out]++
	if r.tr != nil {
		r.trace(now, obs.Traverse, f, in, f.VC, out)
	}
	r.cfg.Send(r.ID, out, f)
}

// trace records a lifecycle event for flit f at this router; callers guard on
// r.tr so an untraced run pays a nil test and no call.
func (r *Router) trace(now sim.Cycle, kind obs.Kind, f *flit.Flit, in, vc, out int) {
	r.tr.Record(obs.Event{
		Cycle: int64(now), Kind: kind, Packet: f.Packet.ID, Seq: int32(f.Seq),
		Src: int32(f.Packet.Src), Dst: int32(f.Packet.Dst),
		Loc: int32(r.ID), In: int32(in), VC: int32(vc), Out: int32(out),
	})
}

// DeliverCredit returns one credit for (output port out, VC vc); the network
// calls it when the downstream hop frees a buffer slot. It reports whether the
// credit can undo a fixed point, so whether a router whose last Tick returned
// false must be ticked for it. One credit can: the first back to a dry port,
// under Opts.Speculation — phase 5 passed that port over with no flit in sight
// and may now revive a circuit to it. Any other credit is read on behalf of a
// flit or a packet the router holds (and a router that holds one is not at a
// fixed point), or by phase 5 as a port that was not dry and still is not.
func (r *Router) DeliverCredit(out, vc int) bool {
	m := out*r.V + vc
	r.credits[m]++
	if int(r.credits[m]) > r.D {
		panic(fmt.Sprintf("router %d: credit overflow on out %d vc %d", r.ID, out, vc))
	}
	wasDry := r.dry>>uint(out)&1 != 0
	r.dry &^= 1 << uint(out)
	return wasDry && r.cfg.Opts.Speculation
}

func (r *Router) hasCredit(out, vc int) bool {
	return r.ejects(out) || r.credits[out*r.V+vc] > 0
}

// noCredit reports what output port out's dry bit records: no credit in any VC.
func (r *Router) noCredit(out int) bool {
	for _, c := range r.credits[out*r.V : (out+1)*r.V] {
		if c > 0 {
			return false
		}
	}
	return true
}

// Tick advances the router by one cycle. It reports whether the router must
// be ticked again next cycle; false means that, absent new deliveries, every
// later tick would be a no-op apart from clearing scratch state (the
// active-set fixed point).
//
// Arrivals are the last phase, and the only one that writes a buffer: a flit
// buffered in cycle t is first seen by VA, classification and SA in cycle
// t+1. That order is the whole of the BW stage — no flit carries an arrival
// stamp for a later phase to compare against.
//
// The cost of a tick follows what the router holds. Phases 2 to 4 only ever
// act on a buffered flit, so once ST has run they are given the input ports
// that still hold one and walk those; a router with empty buffers — one that
// was ticked for an arrival, a grant or a credit — skips them outright.
//
// A router holding no flit, packet or grant has phase 5 as its only reader,
// and one pass of phase 5 is its own fixed point: terminations come before
// revivals, a revival only ever bars later ones, and an output reserved against
// revival means a grant is held. What a tick can still leave unsettled is a
// phase-6 bypass, which runs after phase 5 and may spend the last credit of the
// port its circuit holds: the next tick's to terminate, exactly HeldMask & dry
// (empty without Opts.Pseudo, whose register file never holds an output).
func (r *Router) Tick(now sim.Cycle) bool {
	if r.cfg.Stages != nil {
		return r.timedTick(now)
	}
	r.busyIn, r.busyOut = 0, 0
	if r.pol != nil && r.arrMask != 0 {
		r.pol.Latch(now)
	}
	r.executeReservations(now)
	if r.ports = r.occPorts; r.ports != 0 {
		r.admitHeads()
		r.allocateVCs(now)
		r.classify()
		if r.cfg.Opts.Pseudo { // nothing else ever names a candidate
			r.rideCircuits(now)
		}
		r.switchArbitrate(now)
	}
	r.maintainPseudoCircuits()
	r.processArrivals(now)
	r.res, r.nextRes = r.nextRes, r.res[:0]
	return r.holdsFlits() || r.pc.HeldMask&r.dry != 0
}

// timedTick is Tick with each phase timed into the stage clock: the same
// phases under the same conditions in the same order, so the clock moves no
// bit (TestStageClockChangesNoBit). It is a copy because a nil-guarded lap
// after each phase of Tick itself cost the untimed mesh8-ur-psb job ~4 %;
// TestOneRouterPipeline holds the copy to Tick statement for statement.
func (r *Router) timedTick(now sim.Cycle) bool {
	c := r.cfg.Stages
	c.Ticks++
	t := clockNS()
	r.busyIn, r.busyOut = 0, 0
	if r.pol != nil && r.arrMask != 0 {
		r.pol.Latch(now)
		t = c.lap(StageLatch, t)
	} else {
		c.skip(StageLatch, StageLatch)
	}
	r.executeReservations(now)
	t = c.lap(StageST, t)
	if r.ports = r.occPorts; r.ports != 0 {
		r.admitHeads()
		t = c.lap(StageAdmit, t)
		r.allocateVCs(now)
		t = c.lap(StageVA, t)
		r.classify()
		t = c.lap(StageClassify, t)
		if r.cfg.Opts.Pseudo {
			r.rideCircuits(now)
			t = c.lap(StageRide, t)
		} else {
			c.skip(StageRide, StageRide)
		}
		r.switchArbitrate(now)
		t = c.lap(StageSA, t)
	} else {
		c.skip(StageAdmit, StageSA)
	}
	r.maintainPseudoCircuits()
	t = c.lap(StagePCMaint, t)
	r.processArrivals(now)
	r.res, r.nextRes = r.nextRes, r.res[:0]
	again := r.holdsFlits() || r.pc.HeldMask&r.dry != 0
	c.lap(StageArrivals, t) // with the tick's own bookkeeping
	return again
}

// holdsFlits reports whether any state demands a tick next cycle: pending
// switch traversals, buffered flits, or an in-flight packet owning a VC.
func (r *Router) holdsFlits() bool {
	return len(r.res) > 0 || r.occPorts|r.actPorts != 0
}

// executeReservations performs ST for last cycle's SA grants (phase 1) and
// adds them to this cycle's crossbar busy sets.
func (r *Router) executeReservations(now sim.Cycle) {
	for _, g := range r.res {
		in, vc, out := int(g.in), int(g.vc), int(g.out)
		// Grants are one per output, so only a flit forwarded in phase 0 can
		// hold the column already: it preempts the grant, which re-arbitrates.
		if (r.busyOut>>uint(out))&1 != 0 {
			r.Preemptions++
			continue
		}
		l := in*r.V + vc
		// Speculative SA: a grant issued in parallel with a failed VA is
		// void (paper §3.A); the flit retries.
		_, ov := r.route(l)
		if ov < 0 {
			continue
		}
		// Classify requests no dead link, and a link that died since the
		// grant went through the storm scan before this tick: it detoured,
		// salvaged or purged every lane routed to it, and each resets outVC,
		// caught above.
		if r.linkDead(out) {
			panic(fmt.Sprintf("router %d: grant from in %d vc %d to dead out %d survived the storm scan", r.ID, in, vc, out))
		}
		// The credit SA saw is still there: output VC ov belongs to this
		// lane alone, whose buffered head bars it from bypassing, and phase
		// 5 speculates no circuit onto a reserved output. (An ejection
		// port always has credit.) traverse panics on a negative credit.
		if r.bufLen[l] == 0 || r.buf[l*r.D] != g.f {
			panic(fmt.Sprintf("router %d: reservation lost its flit at in %d vc %d", r.ID, in, vc))
		}
		r.popHead(in, vc)
		r.traverse(now, in, vc, out, g.f, false, false)
		r.busyIn |= 1 << uint(in)
		r.busyOut |= 1 << uint(out)
	}
}

// admitHeads activates the packet whose header flit has reached the head of
// an idle VC, latching its lookahead route (phase 2a). The scan walks only
// lanes with buffered flits and no active packet (occ &^ act).
func (r *Router) admitHeads() {
	for p := r.ports; p != 0; p &= p - 1 {
		i := bits.TrailingZeros64(p)
		for m := r.occ[i] &^ r.act[i]; m != 0; m &= m - 1 {
			vc := bits.TrailingZeros64(m)
			h := r.buf[(i*r.V+vc)*r.D]
			if !h.Kind.IsHead() {
				panic(fmt.Sprintf("router %d: non-head flit %v at head of idle VC", r.ID, h))
			}
			r.admit(i, vc, h)
		}
	}
}

func (r *Router) admit(in, vc int, h *flit.Flit) {
	l := in*r.V + vc
	r.act[in] |= 1 << uint(vc)
	r.actPorts |= 1 << uint(in)
	r.va[in] |= 1 << uint(vc)
	r.outVC[l] = -1
	r.pkt[l] = h.Packet
	r.missL[l] = -1
	out := h.NextOut
	if out < 0 || out >= r.nOut {
		panic(fmt.Sprintf("router %d: header %v carries invalid output port %d", r.ID, h, out))
	}
	// Lookahead routing computed NextOut at the previous hop; a fault storm
	// between then and now may have killed the link. Re-route at admission
	// so the stale lookahead cannot commit the packet to a dead port.
	if out < 4 && r.linkDead(out) {
		out = r.detour(h.Packet)
	}
	r.outPort[l] = int8(out)
}

// linkDead reports whether output port out is currently unusable under the
// configured fault schedule; always false without one.
func (r *Router) linkDead(out int) bool {
	return r.cfg.Faults != nil && r.cfg.Faults.LinkDead(r.ID, out)
}

// detour is the fault-aware route of packet p out of this router.
func (r *Router) detour(p *flit.Packet) int {
	return r.cfg.Routing.RouteAvoid(r.ID, p.Dst, p.RouteClass, r.cfg.Faults)
}

// allocateVCs performs VA for admitted packets without an output VC
// (phase 2b). VA is independent of SA, so it proceeds for pseudo-circuit
// flits too. Only lanes still awaiting VA with a buffered flit (va & occ) are
// visited — a router full of streaming bodies skips the phase entirely — and
// the ports that have one are served in rotating order for fairness: from
// port now mod nIn upwards, then from port 0 up to it. The division is paid
// only when some lane wants VA.
func (r *Router) allocateVCs(now sim.Cycle) {
	var want uint64
	for p := r.ports; p != 0; p &= p - 1 {
		if i := bits.TrailingZeros64(p); r.va[i]&r.occ[i] != 0 {
			want |= 1 << uint(i)
		}
	}
	if want == 0 {
		return
	}
	below := uint64(1)<<uint(now%sim.Cycle(r.nIn)) - 1 // ports before the rotation's start
	for _, w := range [2]uint64{want &^ below, want & below} {
		for ; w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			for m := r.va[i] & r.occ[i]; m != 0; m &= m - 1 {
				vc := bits.TrailingZeros64(m)
				// A header leaves only with an output VC (ST, a ride and a
				// bypass all need one), so a lane awaiting VA still holds it.
				if h := r.buf[(i*r.V+vc)*r.D]; !h.Kind.IsHead() {
					panic(fmt.Sprintf("router %d: lane in %d vc %d awaits VA behind non-head %v", r.ID, i, vc, h))
				}
				r.tryVA(i, vc)
			}
		}
	}
}

// tryVA attempts VC allocation for the packet owning lane (in, vc); it
// returns true on success.
func (r *Router) tryVA(in, vc int) bool {
	l := in*r.V + vc
	out, _ := r.route(l)
	eject := r.ejects(out)
	if !eject && r.linkDead(out) {
		return false // dead link: hold the packet until recovery or reroute
	}
	busy, credits := r.vcBusy[out*r.V:(out+1)*r.V], r.credits[out*r.V:(out+1)*r.V]
	p := r.pkt[l]
	var v int
	switch {
	case r.pol != nil:
		v = r.pol.PickVC(out, p.Dst, p.RouteClass, eject, busy, credits)
	case eject:
		// The receiver NI drains every VC; allocate within the class.
		v, _ = r.cfg.Alloc.ClassRange(p.RouteClass)
	default:
		v = r.cfg.Alloc.Pick(p.Src, p.Dst, p.RouteClass, busy, credits)
	}
	if v < 0 {
		return false
	}
	if !eject {
		busy[v] = true
	}
	r.outVC[l] = int8(v)
	r.va[in] &^= 1 << uint(vc)
	return true
}

// classify splits head flits into pseudo-circuit candidates and SA requests
// (phase 3a). Every buffered flit is eligible: it was written by an earlier
// tick's arrivals phase, so its BW cycle is behind it. One linear pass per
// router: the per-port occupancy masks select the populated lanes and the
// pseudo-circuit comparator reads the contiguous register file, so the
// comparator check is a batched walk across input ports rather than a
// per-object pointer chase.
func (r *Router) classify() {
	r.reqs = r.reqs[:0]
	pseudo := r.cfg.Opts.Pseudo
	for p := r.ports; p != 0; p &= p - 1 {
		i := bits.TrailingZeros64(p)
		r.pcCand[i] = -1
		for m := r.act[i] & r.occ[i]; m != 0; m &= m - 1 {
			vc := bits.TrailingZeros64(m)
			out, ov := r.route(i*r.V + vc)
			if r.linkDead(out) {
				continue // dead link: stall until recovery or the storm's reroute
			}
			if ov < 0 {
				// Header whose VA failed: issue a speculative SA request
				// anyway (grant will be void), modelling the speculative
				// pipeline's wasted grants.
				r.reqs = append(r.reqs, saRequest{int8(i), int8(vc), int8(out)})
				continue
			}
			if !r.hasCredit(out, ov) {
				r.rs.In[i].CreditStalls++
				continue // credit-gated: no request without credit
			}
			// A flit matching the input port's connected pseudo-circuit
			// rides it instead of re-arbitrating, even if the crossbar port
			// is occupied this cycle (back-to-back streaming: it traverses
			// next cycle, still without SA).
			if pseudo && r.pcCand[i] < 0 && r.pc.Match(i, vc, out) {
				r.pcCand[i] = int16(vc)
				continue
			}
			r.reqs = append(r.reqs, saRequest{int8(i), int8(vc), int8(out)})
		}
	}
}

// rideCircuits performs PC-compare + ST for pseudo-circuit candidates
// (phase 3b). A candidate rides unless its crossbar input or output is in
// use this cycle. SA requests of this cycle do not stop it: an SA grant
// preempts the circuit (switchArbitrate terminates it and reserves the
// crossbar for next cycle), and until then a matching flit may still ride.
// Arbitration is never blocked by a circuit, so neither side starves.
func (r *Router) rideCircuits(now sim.Cycle) {
	for p := r.ports; p != 0; p &= p - 1 {
		i := bits.TrailingZeros64(p)
		v := int(r.pcCand[i])
		if v < 0 {
			continue
		}
		l := i*r.V + v
		out, _ := r.route(l)
		if (r.busyIn>>uint(i))&1 != 0 || (r.busyOut>>uint(out))&1 != 0 {
			continue // crossbar port in use this cycle; ride the circuit next cycle
		}
		f := r.buf[l*r.D]
		r.popHead(i, v)
		r.traverse(now, i, v, out, f, true, false)
		r.busyOut |= 1 << uint(out)
	}
}

// switchArbitrate runs the separable round-robin switch allocator
// (phase 4): one request per input port, then one input per output port.
// Grants reserve the crossbar for next cycle and terminate conflicting
// pseudo-circuits. With no requests the whole phase is skipped — the
// arbitration scans below only visit inputs that won input arbitration
// (chosenMask), so an idle router pays nothing here.
func (r *Router) switchArbitrate(now sim.Cycle) {
	if len(r.reqs) == 0 {
		return
	}
	// Input arbitration: choose one requesting VC per input port.
	var chosenMask uint64
	for qi, q := range r.reqs {
		in := int(q.in)
		if chosenMask&(1<<uint(in)) == 0 {
			chosenMask |= 1 << uint(in)
			r.chosen[in] = int16(qi)
			continue
		}
		// Round-robin preference: smallest (vc - rrVC) mod V wins.
		cur, ptr := r.reqs[r.chosen[in]], int(r.rrVC[in])
		if rrDist(int(q.vc), ptr, r.V) < rrDist(int(cur.vc), ptr, r.V) {
			r.chosen[in] = int16(qi)
		}
	}
	// Output arbitration among the per-input winners, visiting only outputs
	// they actually request.
	var outMask uint64
	for m := chosenMask; m != 0; m &= m - 1 {
		outMask |= 1 << uint(r.reqs[r.chosen[bits.TrailingZeros64(m)]].out)
	}
	for om := outMask; om != 0; om &= om - 1 {
		o := bits.TrailingZeros64(om)
		best := -1
		for m := chosenMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if int(r.reqs[r.chosen[i]].out) != o {
				continue
			}
			if ptr := int(r.rrIn[o]); best < 0 || rrDist(i, ptr, r.nIn) < rrDist(best, ptr, r.nIn) {
				best = i
			}
		}
		r.grant(now, r.reqs[r.chosen[best]])
	}
}

func (r *Router) grant(now sim.Cycle, q saRequest) {
	in, vc, out := int(q.in), int(q.vc), int(q.out)
	r.rs.SAGrants++
	l := in*r.V + vc
	f := r.buf[l*r.D]
	if r.tr != nil {
		r.trace(now, obs.SAGrant, f, in, vc, out)
	}
	if r.pol == nil && r.missL[l] < 0 && f.Kind.IsHead() {
		r.missL[l] = int8(r.missClass(in, vc, out))
	}
	r.nextRes = append(r.nextRes, reservation{f, q.in, q.vc, q.out})
	nextVC, nextIn := vc+1, in+1
	if nextVC == r.V {
		nextVC = 0
	}
	if nextIn == r.nIn {
		nextIn = 0
	}
	r.rrVC[in], r.rrIn[out] = int16(nextVC), int16(nextIn)
	if r.cfg.Opts.Pseudo {
		// The new connection claims its ports: terminate conflicting
		// pseudo-circuits (§3.C condition 1) — the granted input's own
		// circuit and the circuit of whichever input holds the output.
		if r.pc.Valid(in) {
			r.pc.Terminate(in)
			r.rs.PCTerminated++
			r.cause[in] = termInput
		}
		if j := int(r.pc.ByOut[out]); j >= 0 {
			r.pc.Terminate(j)
			r.rs.PCTerminated++
			r.cause[j] = termOutput
		}
	}
}

// missClass is why the header at (in, vc), granted out, did not ride a
// pseudo-circuit: its input's register pair, read before the grant
// terminates anything, and for a terminated circuit that would have matched,
// why it was terminated.
func (r *Router) missClass(in, vc, out int) stats.MissClass {
	regOut, live := int(r.pc.Out[in]), r.pc.Valid(in)
	switch {
	case regOut < 0:
		return stats.MissNoCircuit
	case regOut != out:
		return stats.MissOtherOutput
	case int(r.pc.InVC[in]) != vc && live:
		return stats.MissOtherVC
	case int(r.pc.InVC[in]) != vc:
		return stats.MissDeadOtherVC
	case live:
		return stats.MissVAPending
	case r.cause[in] == termOutput:
		return stats.MissOutputTaken
	default:
		return stats.MissTornDown
	}
}

// rrDist is the round-robin distance from pointer ptr to index x modulo n;
// both lie in [0, n), so one conditional add replaces the modulo.
func rrDist(x, ptr, n int) int {
	d := x - ptr
	if d < 0 {
		d += n
	}
	return d
}

// maintainPseudoCircuits terminates circuits whose output ran out of credit
// (§3.C condition 2) and speculatively revives circuits on idle outputs
// (§4.A) — phase 5.
func (r *Router) maintainPseudoCircuits() {
	if !r.cfg.Opts.Pseudo {
		return
	}
	for m := r.pc.HeldMask & r.dry; m != 0; m &= m - 1 {
		j := int(r.pc.ByOut[bits.TrailingZeros64(m)])
		r.pc.Terminate(j)
		r.rs.PCTerminated++
		r.cause[j] = termCredit
	}
	if !r.cfg.Opts.Speculation {
		return
	}
	// Only outputs whose history names an input that still points at them, no
	// live circuit, no crossbar reservation for next cycle and (the paper's
	// rule) some credit left can host a speculative connection; the masks
	// select exactly those, so every call below revives one.
	bar := r.pc.HeldMask | r.dry
	for _, g := range r.nextRes {
		bar |= 1 << uint(g.out)
	}
	for om := r.pc.HistMask &^ bar; om != 0; om &= om - 1 {
		o := bits.TrailingZeros64(om)
		if r.linkDead(o) {
			continue // never speculate a circuit across a dead link
		}
		if r.pc.ConnectSpeculative(o) {
			r.rs.PCSpeculated++
		}
	}
}

// processArrivals handles flits delivered this cycle: buffer bypass when a
// connected pseudo-circuit matches (§4.B), buffer write otherwise
// (phase 6).
func (r *Router) processArrivals(now sim.Cycle) {
	for m := r.arrMask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		f := r.arrival[i]
		r.arrival[i] = nil
		if r.tryBypass(now, i, f) {
			continue
		}
		if r.depth(i*r.V+f.VC) >= r.D {
			panic(fmt.Sprintf("router %d: buffer overflow at in %d vc %d (credit protocol violated)", r.ID, i, f.VC))
		}
		r.rs.BufWrites++
		if depth := r.pushBuf(i, f.VC, f); depth > r.rs.In[i].BufHighWater {
			r.rs.In[i].BufHighWater = depth
		}
		if r.tr != nil {
			r.trace(now, obs.BufWrite, f, i, f.VC, f.NextOut)
		}
	}
	r.arrMask = 0
}

// tryBypass attempts buffer bypassing for an arriving flit; on success the
// flit traverses the crossbar this cycle (PC + ST), saving the BW stage.
func (r *Router) tryBypass(now sim.Cycle, i int, f *flit.Flit) bool {
	if !r.cfg.Opts.BufferBypass {
		return false
	}
	l := i*r.V + f.VC
	if r.bufLen[l] != 0 || (r.busyIn>>uint(i))&1 != 0 {
		return false
	}
	if f.Kind.IsHead() {
		// A VC carries one packet at a time, in order: the previous
		// packet's tail arrived before this header and is still buffered
		// (refused above) or has left, releasing the lane.
		if r.active(i, f.VC) {
			panic(fmt.Sprintf("router %d: header %v arrived on empty active VC %d of in %d", r.ID, f, f.VC, i))
		}
		if r.linkDead(f.NextOut) {
			return false // dead onward link: buffer, then re-route at admission
		}
		if !r.pc.Match(i, f.VC, f.NextOut) || (r.busyOut>>uint(f.NextOut))&1 != 0 {
			return false
		}
		// VA in parallel with the bypass (§4.B: "VA is performed only for
		// header flits and it needs the output port numbers only").
		r.admit(i, f.VC, f)
		if !r.tryVA(i, f.VC) {
			r.resetLane(i, f.VC)
			return false
		}
	} else {
		out, ov := r.route(l)
		if !r.active(i, f.VC) || ov < 0 {
			panic(fmt.Sprintf("router %d: body flit %v arrived on idle VC", r.ID, f))
		}
		// Links die only between cycles, and the storm scan then purged
		// every packet committed to a dead output, or salvaged it with its
		// header still buffered here (refused above).
		if r.linkDead(out) {
			panic(fmt.Sprintf("router %d: body flit %v bound for dead out %d outlived the storm scan", r.ID, f, out))
		}
		if !r.pc.Match(i, f.VC, out) || (r.busyOut>>uint(out))&1 != 0 {
			return false
		}
	}
	out, ov := r.route(l)
	if !r.hasCredit(out, ov) {
		return false
	}
	r.traverse(now, i, f.VC, out, f, true, true)
	r.busyIn |= 1 << uint(i)
	r.busyOut |= 1 << uint(out)
	return true
}

// traverse moves flit f through the crossbar from (in, vc) to out: the ST
// stage. viaPC marks pseudo-circuit reuse; bypass marks buffer bypassing
// (the flit never occupied the buffer).
func (r *Router) traverse(now sim.Cycle, in, vc, out int, f *flit.Flit, viaPC, bypass bool) {
	l := in*r.V + vc
	rs, ps, head := r.rs, &r.rs.In[in], f.Kind.IsHead()

	// Fig. 1 crossbar-connection temporal locality, measured at packet
	// granularity (header flits) regardless of pseudo-circuit scheme: body
	// flits reuse their header's connection by construction and would
	// trivially inflate the metric. Policy routers do not report it — their
	// Results predate the shared pipeline and are pinned bit for bit.
	if head && r.pol == nil {
		if r.lastOut[in] >= 0 {
			rs.XbarPrev++
			if int(r.lastOut[in]) == out {
				rs.XbarSame++
			}
		}
		r.lastOut[in] = int16(out)
		rs.HeadTravs++
		if !viaPC {
			rs.Misses[r.missL[l]]++
		}
	}

	// Traversals, reuses and bypasses are counted per input port (the router's
	// figure is the ports' sum); their header-only and speculative shares per
	// router.
	ps.Traversals++
	rs.OutSends[out]++
	if viaPC {
		ps.PCReused++
		if r.pc.Spec[in] {
			rs.SpecReused++
		}
		if head {
			rs.HeadReused++
		}
	}
	if bypass {
		ps.Bypassed++
		if head {
			rs.HeadBypassed++
		}
	}
	if r.tr != nil {
		kind := obs.Traverse
		if bypass {
			kind = obs.Bypass
		}
		r.trace(now, kind, f, in, vc, out)
	}

	// Pseudo-circuit refresh: every traversal leaves the register holding its
	// connection (§3.B) and the output claimed; a flit riding a live
	// non-speculative circuit finds both so. No other input's circuit can
	// hold the output here, by Tick's phase order: an SA grant terminates the
	// output's holder when it is granted, phase 5 keeps a reserved output out
	// of speculation (so nothing reconnects it before the grant traverses),
	// and a ride or a bypass traverses on the input's own circuit.
	if r.cfg.Opts.Pseudo {
		held := r.pc.ByOut[out]
		created, displaced := r.pc.Connect(in, vc, out)
		if created {
			rs.PCCreated++
		}
		if displaced {
			panic(fmt.Sprintf("router %d: traversal from in %d to out %d displaced in %d's circuit", r.ID, in, out, held))
		}
	}

	// Flow control and lookahead state for the next hop.
	_, ov := r.route(l)
	f.VC = ov
	if !r.ejects(out) {
		m := out*r.V + ov
		r.credits[m]--
		if r.credits[m] < 0 {
			panic(fmt.Sprintf("router %d: negative credit on out %d vc %d", r.ID, out, ov))
		}
		if r.credits[m] == 0 && r.noCredit(out) {
			r.dry |= 1 << uint(out)
		}
	}
	if r.pol != nil {
		r.pol.Traversed(f)
	}
	if head {
		f.Packet.Hops++
	}
	if f.Kind.IsTail() {
		if !r.ejects(out) {
			r.vcBusy[out*r.V+ov] = false
		}
		r.resetLane(in, vc)
	}
	// The buffer slot (real or bypassed) is free again: return the credit.
	r.cfg.Credit(r.ID, in, vc)
	r.cfg.Send(r.ID, out, f)
}

// FaultScan applies a fault transition to this router, as its fault view
// now reads: pseudo-circuits crossing dead links are cleared together with
// the history that could revive them, packets that can no longer make
// progress (or are bound for a dead router) are reported to kill, and
// survivors whose committed-but-unallocated output died are detoured. Under
// the reroute policy a committed packet whose header is still buffered here
// releases its output VC and is detoured too. A policy's PathDead counts as a
// dead output link. all treats the router as dead (the standstill watchdog's
// purge): every held packet is killed and every pseudo-circuit cleared. It
// returns the pseudo-circuits torn down (already counted as terminations in
// the router's row) and the packets detoured under the reroute policy.
// Called between cycles from the kernel's main phase, so staged arrivals are
// always nil and scratch state is idle.
func (r *Router) FaultScan(all bool, kill func(p *flit.Packet)) (torn, salvaged uint64) {
	st := r.cfg.Faults
	dead := all || st.RouterDead(r.ID)
	for i := 0; i < r.nIn; i++ {
		if r.pc.Valid(i) && (dead || st.LinkDead(r.ID, int(r.pc.Out[i]))) {
			r.pc.Clear(i)
			r.rs.PCTerminated++
			r.cause[i] = termFault
			torn++
		}
		for vc := 0; vc < r.V; vc++ {
			l := i*r.V + vc
			for _, f := range r.flits(l) {
				if dead || st.DstDead(f.Packet.Dst) {
					kill(f.Packet)
				}
			}
			if !r.active(i, vc) {
				continue
			}
			out, ov := r.route(l)
			switch {
			case dead || st.DstDead(r.pkt[l].Dst):
				kill(r.pkt[l])
			case out < r.nOut && !r.ejects(out) && (st.LinkDead(r.ID, out) ||
				r.pol != nil && r.pol.PathDead(out, ov)):
				if ov < 0 {
					// Not yet committed to an output VC: detour in place.
					r.outPort[l] = int8(r.detour(r.pkt[l]))
				} else if st.Policy() == fault.Reroute && r.depth(l) > 0 && r.buf[l*r.D].Kind.IsHead() {
					// Committed but the whole packet is still here: release
					// the allocation and detour.
					r.vcBusy[out*r.V+ov] = false
					r.outVC[l] = -1
					r.va[i] |= 1 << uint(vc)
					r.outPort[l] = int8(r.detour(r.pkt[l]))
					salvaged++
				} else {
					// Partially forwarded (or salvage disabled): the wormhole
					// spans the dead link and cannot be reassembled.
					kill(r.pkt[l])
				}
			}
		}
	}
	return torn, salvaged
}

// FaultStale reports every packet resident in this router whose header
// entered the network before cutoff. Fault detours are not covered by the
// routing algorithm's turn restrictions, so a storm can leave a small set of
// packets in a buffer-dependency cycle; when other traffic keeps flowing, no
// global standstill ever appears, and the cycle throttles everything routed
// through it indefinitely. The stale sweep is the bounded-wait escape: any
// packet resident that long is either wedged or queued behind a wedge, and
// killing it frees the cycle. Residence is measured from NetStart (network
// entry), not Injected (source-queue entry): time spent waiting at the
// source holds no network resources and must not count against the bound.
// Called between cycles from the kernel's main phase.
func (r *Router) FaultStale(cutoff sim.Cycle, kill func(p *flit.Packet)) {
	for i := 0; i < r.nIn; i++ {
		for vc := 0; vc < r.V; vc++ {
			l := i*r.V + vc
			for _, f := range r.flits(l) {
				if f.Packet.NetStart < cutoff {
					kill(f.Packet)
				}
			}
			if r.active(i, vc) && r.pkt[l].NetStart < cutoff {
				kill(r.pkt[l])
			}
		}
	}
}

// FaultPurge removes every flit of packet p from this router: buffered
// flits are unlinked (their buffer-slot credit is returned upstream through
// the normal credit path, then drop is called so the network can recycle
// and account them) and the VC owned by p is released. Reservations held
// for p skip harmlessly next cycle because the VC's outVC resets. Called
// from the kernel's main phase only.
func (r *Router) FaultPurge(p *flit.Packet, drop func(f *flit.Flit)) {
	for i := 0; i < r.nIn; i++ {
		for vc := 0; vc < r.V; vc++ {
			l := i*r.V + vc
			for k := 0; k < r.depth(l); {
				if r.buf[l*r.D+k].Packet != p {
					k++
					continue
				}
				f := r.buf[l*r.D+k]
				r.removeBufAt(i, vc, k)
				r.cfg.Credit(r.ID, i, vc)
				drop(f)
			}
			if r.active(i, vc) && r.pkt[l] == p {
				if out, ov := r.route(l); ov >= 0 && !r.ejects(out) {
					r.vcBusy[out*r.V+ov] = false
				}
				r.resetLane(i, vc)
			}
		}
	}
}

// Quiescent reports whether the router holds no flits and no pending grants
// (used for drain-based termination and invariant tests).
func (r *Router) Quiescent() bool {
	return r.arrMask == 0 && !r.holdsFlits()
}

// CheckInvariants panics if internal invariants are violated; tests call it
// every cycle. Beyond the paper's structural invariants it verifies every
// derived structure the SoA layout introduced — the occupancy index against
// the buffers, the VA mask against the active lanes, the dry word against the
// credits and the two port words against the masks here, the register file's
// through its own check — and the two rules a policy's VA pick and phase-0
// latch must keep: a non-ejection output VC is busy exactly when one active
// lane owns it, and no flit is buffered with express hops still ahead of it.
func (r *Router) CheckInvariants() {
	owners := make([]int, r.nOut*r.V)
	var occPorts, actPorts uint64
	for i := 0; i < r.nIn; i++ {
		var occ, va uint64
		for vc := 0; vc < r.V; vc++ {
			l := i*r.V + vc
			if n := r.depth(l); n < 0 || n > r.D {
				panic(fmt.Sprintf("router %d: buffer overflow at in %d vc %d", r.ID, i, vc))
			}
			for _, f := range r.flits(l) {
				if f.ExpressHops != 0 {
					panic(fmt.Sprintf("router %d: flit %v buffered mid-express at in %d vc %d", r.ID, f, i, vc))
				}
			}
			if r.bufLen[l] > 0 {
				occ |= 1 << uint(vc)
			}
			if out, ov := r.route(l); r.active(i, vc) {
				if ov < 0 {
					va |= 1 << uint(vc)
				} else if !r.ejects(out) {
					owners[out*r.V+ov]++
				}
			}
		}
		if occ != r.occ[i] {
			panic(fmt.Sprintf("router %d: occupancy mask desynced at in %d (%b, buffers say %b)", r.ID, i, r.occ[i], occ))
		}
		if va != r.va[i] {
			panic(fmt.Sprintf("router %d: VA mask desynced at in %d (%b, lanes say %b)", r.ID, i, r.va[i], va))
		}
		occPorts |= min(occ, 1) << uint(i)
		actPorts |= min(r.act[i], 1) << uint(i)
	}
	if err := r.pc.Check(); err != nil {
		panic(fmt.Sprintf("router %d: %v", r.ID, err))
	}
	for o := 0; o < r.nOut; o++ {
		if dry := r.dry>>uint(o)&1 != 0; dry != (!r.ejects(o) && r.noCredit(o)) {
			panic(fmt.Sprintf("router %d: dry bit desynced at out %d (%v, credits say %v)", r.ID, o, dry, !dry))
		}
		for vc := 0; vc < r.V; vc++ {
			c := int(r.credits[o*r.V+vc])
			if !r.ejects(o) && (c < 0 || c > r.D) {
				panic(fmt.Sprintf("router %d: credit %d out of range on out %d vc %d", r.ID, c, o, vc))
			}
			if n := owners[o*r.V+vc]; n > 1 || r.vcBusy[o*r.V+vc] != (n == 1) {
				panic(fmt.Sprintf("router %d: out %d vc %d busy=%v with %d owning lanes", r.ID, o, vc, r.vcBusy[o*r.V+vc], n))
			}
		}
	}
	if occPorts != r.occPorts {
		panic(fmt.Sprintf("router %d: occupied-port word desynced (%b, occupancy masks say %b)", r.ID, r.occPorts, occPorts))
	}
	if actPorts != r.actPorts {
		panic(fmt.Sprintf("router %d: active-port word desynced (%b, active masks say %b)", r.ID, r.actPorts, actPorts))
	}
}
