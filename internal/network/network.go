// Package network assembles routers into a complete on-chip network: it
// wires the topology's port graph, implements the network interfaces (NIs)
// that packetize, inject, and reassemble messages, carries flits and credits
// over links with wire-length-proportional latency, and drives the global
// cycle loop.
//
// The simulator is fully deterministic for a given seed, and all
// cross-router effects are latched with at least one cycle of latency, so
// routers tick in a fixed order without affecting results.
//
// There is one cycle kernel (Step; DESIGN.md §9), on one goroutine: a main
// phase, then one pass that latches the due deliveries, injects from the NIs
// and ticks the routers. The kernel is work-proportional: it ticks only
// routers that hold state, received a flit, or received a credit that can
// change what they do (any other router is provably at a fixed point, so
// skipping it is bit-identical to ticking it), and flits and packets come from
// a free list, so the steady-state cycle allocates nothing. Config.Naive is the
// same pass with every router ticked: the reference the determinism harness
// compares against. More CPUs go to whole simulations side by side (cmd/sweep's
// points, nocd's jobs), never inside a cycle.
package network

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/energy"
	"pseudocircuit/internal/fault"
	"pseudocircuit/internal/flit"
	"pseudocircuit/internal/obs"
	"pseudocircuit/internal/router"
	"pseudocircuit/internal/routing"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/stats"
	"pseudocircuit/internal/topology"
	"pseudocircuit/internal/vcalloc"
)

// Workload generates the network's traffic. Open-loop (synthetic, trace)
// workloads only implement Tick; closed-loop workloads (the CMP substrate)
// also react to deliveries.
type Workload interface {
	// Tick is called once per cycle; the workload enqueues new packets via
	// inj (packets carry their source node in Src).
	Tick(now sim.Cycle, inj Injector)
	// Deliver notifies the workload that a packet reached its destination.
	Deliver(now sim.Cycle, p *flit.Packet)
	// Done reports that the workload will generate no further packets, so a
	// run may terminate once the network drains. Open-loop sources return
	// false.
	Done() bool
}

// Injector accepts new packets into source queues.
type Injector interface {
	// Inject enqueues p at its source node's NI. The network assigns the
	// packet ID and timestamps.
	Inject(p *flit.Packet)
}

// PacketSource is implemented by injectors that hand out pooled packets.
// Packets obtained this way are recycled by the network after
// Workload.Deliver returns, so workloads must not retain them.
type PacketSource interface {
	NewPacket() *flit.Packet
}

// AcquirePacket returns a zeroed packet to fill and pass to inj.Inject:
// pooled (allocation-free in steady state) when the injector supports it,
// freshly allocated otherwise.
func AcquirePacket(inj Injector) *flit.Packet {
	if ps, ok := inj.(PacketSource); ok {
		return ps.NewPacket()
	}
	return &flit.Packet{}
}

// Node is the router-side interface the network drives; implemented by the
// standard (pseudo-circuit-capable) router and by the EVC comparison router.
type Node interface {
	// Tick advances the router one cycle and reports whether it must be
	// ticked again next cycle. A false return promises the router is at a
	// fixed point: further ticks would neither change its state nor touch any
	// statistics or energy counter, so the network's active-set scheduler may
	// skip it until the next Deliver, or the next DeliverCredit that says the
	// fixed point is gone. The standard router asks for another tick while it
	// holds a flit, a packet or a grant, or a pseudo-circuit to an output that
	// has run out of credit and is its next tick's to terminate.
	Tick(now sim.Cycle) bool
	Deliver(in int, f *flit.Flit)
	// DeliverCredit returns one credit for (out, vc) and reports whether the
	// credit can undo a fixed point. False promises that a router whose last
	// Tick returned false is still at its fixed point with the credit counted;
	// of a router that is not at one it says nothing, and need not: that
	// router is scheduled already. The standard router says true to one credit
	// only, the first back to an output that had none left, and only when it
	// speculates: a circuit to that output may now be revived.
	DeliverCredit(out, vc int) bool
	MarkEjection(out int)
	Quiescent() bool
	CheckInvariants()
	// The fault teardown, called from the main phase under a fault schedule
	// only: FaultScan applies a storm as the router's fault view reads (all
	// purges everything) and returns the circuits torn and packets detoured,
	// FaultStale reports packets resident since before cutoff, FaultPurge
	// removes a condemned packet.
	FaultScan(all bool, kill func(p *flit.Packet)) (torn, salvaged uint64)
	FaultStale(cutoff sim.Cycle, kill func(p *flit.Packet))
	FaultPurge(p *flit.Packet, drop func(f *flit.Flit))
}

// NodeFactory builds router id with the given radix; rcfg carries the shared
// router configuration (callbacks, meters). A nil factory builds the
// standard router.
type NodeFactory func(id, inPorts, outPorts int, rcfg *router.Config) Node

// Config describes one simulated network.
type Config struct {
	Topo      topology.Topology
	Algorithm routing.Algorithm
	Policy    vcalloc.Policy
	StaticKey vcalloc.StaticKey
	NumVCs    int // per input port (paper: 4)
	BufDepth  int // flits per VC (paper: 4)
	Opts      core.Options
	Seed      uint64
	// Factory overrides the router implementation (EVC comparison, §7.B).
	Factory NodeFactory
	// NIVCLimit restricts injection to VCs [0, NIVCLimit) when positive;
	// the EVC configuration reserves the upper VCs for express paths.
	NIVCLimit int
	// Naive disables the active-set scheduler: every router is ticked every
	// cycle, as the seed simulator did. Results are bit-identical either
	// way (the determinism harness asserts this); the naive kernel exists
	// as the reference for that comparison.
	Naive bool

	// Faults declares a deterministic fault schedule: cycle-stamped
	// link/router down/up events applied inside the kernel's main phase, so
	// faulted runs stay bit-identical on both schedules.
	// The schedule must satisfy fault.Schedule.Validate on the network's
	// topology; nil or empty behaves exactly like no schedule at all.
	Faults *fault.Schedule

	// Reliable enables NI-level end-to-end reliable delivery: per-flow
	// sequence numbers, receiver acks and dedup, sender retransmission with
	// capped exponential backoff and a bounded retry budget (DESIGN.md §14).
	// nil (the default) disables the layer entirely — no sequence numbers,
	// no acks, no per-NI reliability state.
	Reliable *Reliability

	// Observability probes, both opt-in and observation-only: enabling either
	// cannot change simulation results, and leaving them nil (the default)
	// costs one predictable branch per probe site and zero allocations.
	// Series collects cycle-windowed samples of the network-wide counters.
	// Tracer records flit lifecycle events into a bounded ring.
	Series *stats.Series
	Tracer *obs.Tracer
	// Stages times every phase of every router tick (router.StageClock).
	Stages *router.StageClock
}

// DefaultConfig returns the paper's network configuration (§5) on the given
// topology: 4 VCs per input port, 4-flit buffers, XY routing, dynamic VA,
// baseline router.
func DefaultConfig(t topology.Topology) Config {
	return Config{
		Topo:      t,
		Algorithm: routing.XY,
		Policy:    vcalloc.Dynamic,
		NumVCs:    4,
		BufDepth:  4,
		Opts:      core.DefaultOptions(core.Baseline),
		Seed:      1,
	}
}

// upstream identifies what feeds a router input port, in int32s like the
// ring's and the latch's router ids.
type upstream struct {
	router int32 // -1 when fed by an NI, -2 when unwired
	out    int32 // output port, or node id when router == -1
}

// delivery is a flit in flight to input port port of router router, or to
// the NI of node port when router == -1.
type delivery struct {
	flit         *flit.Flit
	router, port int32
}

// upCredit is a credit on its way upstream, to VC vc of output port out of
// router router, or of the NI of node out when router == -1.
type upCredit struct {
	router, out, vc int32
}

// bitset is a word-packed index over the routers or the NIs; a phase walks its
// set bits in ascending order.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) has(i int) bool { return b[i>>6]>>uint(i&63)&1 != 0 }

// setAll sets bits [0, n) of an index sized for n bits.
func (b bitset) setAll(n int) {
	for i := range b {
		b[i] = ^uint64(0)
	}
	if n&63 != 0 {
		b[len(b)-1] = 1<<uint(n&63) - 1
	}
}

// hop is one output lane's memo entry (Network.hops): where the last packet
// through the lane went from there. It is keyed on that packet's destination
// and route class and holds the delivery target (the next router and its
// input port, or -1 and the node of the NI), the link latency and the
// lookahead port at the next router (-1 when the hop ejects). lat 0 marks an
// empty entry: a link takes at least a cycle.
type hop struct {
	dst, router, port int32
	class, lat, next  int8
}

// send is the router Send callback: it resolves one hop for a flit leaving
// output port out of router id and sets lookahead routing for the next
// router. A flit switched during cycle t spends the link's latency cycles in
// link traversal (LT) and is processed by the next hop at t + latency + 1, so
// LT is a real pipeline stage (paper Fig. 6: ... | ST | LT |).
//
// The hop is resolved once per packet: a header fills its output lane's memo
// entry and the body and tail flits behind it, which hold the same lane
// (vcBusy gives a non-ejection lane to one packet at a time), read it back.
// Both answers are pure functions of (id, out, dst, class) while the links
// hold, and applyFaults, the one place link state changes, clears the memo,
// so a hit is exactly what resolving again would give.
func (n *Network) send(id, out int, f *flit.Flit) {
	p := f.Packet
	e := &n.hops[(n.outBase[id]+out)*n.cfg.NumVCs+f.VC]
	if e.dst != int32(p.Dst) || e.class != int8(p.RouteClass) || e.lat == 0 {
		*e = n.resolve(id, out, p.Dst, p.RouteClass)
		n.hopMisses++
	} else if n.CheckInvariants {
		if want := n.resolve(id, out, p.Dst, p.RouteClass); *e != want {
			panic(fmt.Sprintf("network: hop memo at router %d out %d vc %d says %+v, the topology %+v", id, out, f.VC, *e, want))
		}
	}
	f.NextOut = int(e.next)
	if f.ExpressHops > 0 {
		// An express flit follows its header straight through the router it
		// bypasses, even after an up event closed the detour that made it so.
		f.NextOut = out
	}
	n.schedule(int(e.lat)+1, delivery{flit: f, router: e.router, port: e.port})
}

// resolve asks the topology where a flit for dst of route class class lands
// when it leaves output port out of router r, and the routing engine for the
// lookahead port there.
func (n *Network) resolve(r, out, dst, class int) hop {
	h := n.topo.NextHop(r, out, dst)
	e := hop{dst: int32(dst), router: int32(h.Router), port: int32(h.InPort),
		class: int8(class), lat: int8(h.Latency), next: -1}
	if h.Router >= 0 {
		e.next = int8(n.engine.RouteAvoid(h.Router, dst, class, n.faults))
	}
	return e
}

// credit is the router Credit callback: a credit returns to whatever feeds
// (id, in), router output or NI, through the credit latch: one cycle later.
func (n *Network) credit(id, in, vc int) {
	u := n.ups[n.inBase[id]+in]
	if u.router == -2 {
		panic(fmt.Sprintf("network: credit from unwired input port %d of router %d", in, id))
	}
	n.credNext = append(n.credNext, upCredit{router: u.router, out: u.out, vc: int32(vc)})
}

// latchCredit hands router r one credit for (out, vc), and schedules r when the
// router says the credit can undo its fixed point. A router that answers no
// stays as it was, scheduled or not; the naive kernel, ticking it regardless,
// proves the tick not made was a no-op.
func (n *Network) latchCredit(r, out, vc int) {
	if n.routers[r].DeliverCredit(out, vc) {
		n.tick.set(r)
	}
}

// Network is a runnable simulated network.
type Network struct {
	cfg     Config
	topo    topology.Topology
	engine  *routing.Engine
	niAlloc *vcalloc.Allocator
	niIdle  []bool // all false, never written: an NI's port has no VC held when it picks
	routers []Node
	nis     []ni       // the NI of node i at i
	ups     []upstream // what feeds input port in of router r, at inBase[r]+in
	// inBase[r] / outBase[r] are router r's first network-wide input / output
	// port: prefix sums over the radices, with a final total.
	inBase, outBase []int
	// hops is the hop memo send reads, one entry per output lane:
	// (outBase[r]+out)*NumVCs + vc.
	// hopMisses counts the entries send resolved.
	hops      []hop
	hopMisses uint64

	// Stats holds what the NIs and the main phase count; router events are
	// counted in registry, one row per router written only by that router, and
	// every network-wide router figure (Registry().Totals(), Energy()) is the
	// rows' sum taken on read.
	Stats    *stats.Network
	registry *stats.Registry
	series   *stats.Series
	tracer   *obs.Tracer

	now      sim.Cycle
	ring     [][]delivery // flits in flight, indexed by arrival cycle & ringMask
	ringMask int          // len(ring)-1; the ring is a power of two so slot lookup divides nothing
	rng      *sim.RNG
	nextID   uint64
	inFlight int // packets injected but not yet fully ejected

	// The credit latch: the credits returned last cycle, which this one
	// delivers, and this cycle's. Step swaps them before anything can return one.
	credDue, credNext []upCredit

	pool *flit.Pool
	// naive keeps every router in the tick index: all of them tick every cycle.
	naive bool

	// The two work indexes, word-packed (bit r of tick is router r, bit i of
	// inj is NI i), so a phase visits what has work. tick marks routers to tick
	// this cycle: set when a flit is latched, when a credit is latched that can
	// undo the router's fixed point (latchCredit), and by the fault paths'
	// wakeAll; cleared when Tick reports a fixed point, never cleared under
	// Config.Naive. inj marks NIs with a packet queued or mid-injection: set by
	// enqueue, cleared once inject leaves the NI empty. Both are supersets — a
	// purge may empty an NI or a router behind them, and the visit that finds
	// nothing to do clears the bit — and CheckInvariants runs verify that
	// nothing with work is missing from them.
	tick bitset
	inj  bitset

	// Fault machinery (nil/empty without a schedule): the fault view every
	// layer asks, the misroute livelock bound, and the scratch victim list
	// reused across purges.
	faults   *fault.State
	hopLimit int
	victims  []*flit.Packet
	// Wedge watchdog (active only with a schedule): fault detours are not
	// covered by XY's turn restrictions, so a storm can leave packets in a
	// buffer-dependency cycle that never moves again — invisible to the hop
	// limit, which only fires on flits that still travel. lastMove/stallRun
	// track whole-network progress from the main phase; stallLimit cycles of
	// total standstill with flits in flight (and no fault currently down,
	// when waiting is legitimate) purge the fabric so runs and drains
	// terminate.
	lastMove   uint64
	stallRun   int
	stallLimit int
	condemnFn  func(p *flit.Packet) // hoisted n.condemn and n.dropFlit (a method
	dropFn     func(f *flit.Flit)   // value passed to an interface method allocates)
	// Stale sweep (the watchdog's partial-wedge companion): a detour
	// deadlock that other traffic keeps flowing around never trips the
	// standstill watchdog, so every staleScanEvery cycles resident packets
	// whose network residence exceeds staleLimit are condemned — a bounded
	// residence time, enforced only when a schedule is configured. staleHold
	// records the last cycle any fault was down: while one is, parking in
	// front of it is legitimate waiting, so the sweep pauses and resumes
	// only a full staleLimit after recovery, giving released packets the
	// same residence budget a fresh one gets.
	staleLimit sim.Cycle
	staleHold  sim.Cycle

	// Reliability layer (nil when off): the resolved configuration and the
	// count of outstanding sender records across all NIs — packets neither
	// acknowledged nor abandoned yet, which Drain must wait out.
	rel        *Reliability
	relPending int

	// CheckInvariants enables per-cycle router invariant checking (tests).
	CheckInvariants bool
}

// New builds a network from cfg.
func New(cfg Config) *Network {
	if cfg.NumVCs <= 0 || cfg.BufDepth <= 0 {
		panic("network: NumVCs and BufDepth must be positive")
	}
	t := cfg.Topo
	engine := routing.New(cfg.Algorithm, t)
	alloc := vcalloc.New(cfg.Policy, cfg.NumVCs, engine.NumClasses(), t.Nodes()).
		WithStaticKey(cfg.StaticKey)
	niAlloc := alloc
	if cfg.NIVCLimit > 0 {
		if engine.NumClasses() != 1 {
			panic("network: NIVCLimit requires a single-class routing algorithm")
		}
		niAlloc = vcalloc.New(cfg.Policy, cfg.NIVCLimit, 1, t.Nodes()).
			WithStaticKey(cfg.StaticKey)
	}

	n := &Network{
		cfg:     cfg,
		topo:    t,
		engine:  engine,
		niAlloc: niAlloc,
		niIdle:  make([]bool, cfg.NumVCs),
		Stats:   &stats.Network{},
		rng:     sim.NewRNG(cfg.Seed),
		pool:    flit.NewPool(),
		naive:   cfg.Naive,
		series:  cfg.Series,
		tracer:  cfg.Tracer,
	}
	if cfg.Reliable != nil {
		rel := cfg.Reliable.WithDefaults()
		n.rel = &rel
	}

	// Fault schedule: validated defensively (the spec layer validates with
	// the real horizon; here only structure matters), replayed by a State the
	// main phase alone mutates. The empty schedule is deliberately identical to
	// no schedule: no state, no hop limit, no extra branches anywhere.
	if cfg.Faults != nil && len(cfg.Faults.Events) > 0 {
		ft, ok := t.(fault.Topo)
		if !ok {
			panic(fmt.Sprintf("network: fault schedules are not supported on %T", t))
		}
		sched := fault.Schedule{
			Policy:    cfg.Faults.Policy,
			AllowOpen: cfg.Faults.AllowOpen,
			Events:    append([]fault.Event(nil), cfg.Faults.Events...),
		}
		if err := sched.Validate(ft, 1<<62); err != nil {
			panic(fmt.Sprintf("network: invalid fault schedule: %v", err))
		}
		n.faults = fault.NewState(sched, ft)
		// Misrouting around dead links can exceed the minimal hop count;
		// bound it so a pathological schedule becomes packet drops, never
		// livelock. Generous: a detour never needs more than a few grid
		// perimeters.
		n.hopLimit = 4*t.Routers() + 64
		// Wedge watchdog threshold: far above any transient (link latencies
		// are single-digit; with flits in flight and no fault down, a healthy
		// network cannot go this long without a single buffer write or link
		// traversal anywhere), far below any drain horizon a test would use.
		n.stallLimit = 1024
		// Stale bound: far above any healthy residence time at the operating
		// points the experiments run (latencies are tens to hundreds of
		// cycles), small enough that a wedge clears within a few thousand
		// cycles of forming.
		n.staleLimit = 2048
		n.condemnFn, n.dropFn = n.condemn, n.dropFlit
	}

	// The network owns the router slab and the counter registry; every router
	// carves its state from the slab and gets a row of the registry.
	R := t.Routers()
	inRadix, outRadix := make([]int, R), make([]int, R)
	n.inBase, n.outBase = make([]int, R+1), make([]int, R+1)
	for r := range inRadix {
		inRadix[r], outRadix[r] = t.InPorts(r), t.OutPorts(r)
		n.inBase[r+1], n.outBase[r+1] = n.inBase[r]+inRadix[r], n.outBase[r]+outRadix[r]
	}
	slab := router.NewSlab(cfg.NumVCs, cfg.BufDepth, inRadix, outRadix)
	n.registry = stats.NewRegistry(inRadix, outRadix)
	n.wire()
	n.hops = make([]hop, n.outBase[R]*cfg.NumVCs)

	rcfg := router.Config{
		NumVCs:   cfg.NumVCs,
		BufDepth: cfg.BufDepth,
		Slab:     slab,
		Opts:     cfg.Opts,
		Alloc:    alloc,
		Send:     n.send,
		Credit:   n.credit,
		Reg:      n.registry,
		Trace:    cfg.Tracer,
		Faults:   n.faults,
		Routing:  engine,
		Stages:   cfg.Stages,
	}
	factory := cfg.Factory
	if factory == nil {
		factory = func(id, in, out int, rcfg *router.Config) Node {
			return router.New(id, in, out, rcfg)
		}
	}
	n.tick, n.inj = newBitset(t.Routers()), newBitset(t.Nodes())
	if n.naive {
		n.tick.setAll(t.Routers())
	}
	n.routers = make([]Node, t.Routers())
	for r := range n.routers {
		n.routers[r] = factory(r, t.InPorts(r), t.OutPorts(r), &rcfg)
	}
	// Wire terminals. The NIs are one array and their credit counters one
	// slab, every counter starting full.
	V := cfg.NumVCs
	credits := make([]int16, t.Nodes()*V)
	for i := range credits {
		credits[i] = int16(cfg.BufDepth)
	}
	n.nis = make([]ni, t.Nodes())
	for node := range n.nis {
		r, inP, outP := t.NodeRouter(node)
		n.routers[r].MarkEjection(outP)
		n.ups[n.inBase[r]+inP] = upstream{router: -1, out: int32(node)}
		initNI(&n.nis[node], n, node, r, inP, credits[node*V:(node+1)*V:(node+1)*V])
	}
	return n
}

// wire derives New's wiring from the topology's port graph: one walk over
// every router's links gives the upstream of each input port a link feeds
// (terminal ports get theirs with the NIs) and the largest link latency,
// which sizes the delivery ring. The cost is the links'.
func (n *Network) wire() {
	t := n.topo
	inBase := n.inBase
	n.ups = make([]upstream, inBase[t.Routers()])
	for i := range n.ups {
		n.ups[i] = upstream{router: -2}
	}
	maxLat := 1
	var r int
	visit := func(out int, h topology.Hop) {
		maxLat = max(maxLat, h.Latency)
		if h.Router < 0 {
			return
		}
		p := inBase[h.Router] + h.InPort
		if h.InPort < 0 || p >= inBase[h.Router+1] {
			panic(fmt.Sprintf("network: router %d has no input port %d", h.Router, h.InPort))
		}
		u := upstream{router: int32(r), out: int32(out)}
		if cur := n.ups[p]; cur.router != -2 && cur != u {
			panic(fmt.Sprintf("network: input port %d of router %d fed by two outputs", h.InPort, h.Router))
		}
		n.ups[p] = u
	}
	for r = 0; r < t.Routers(); r++ {
		t.Links(r, visit)
	}
	if maxLat > math.MaxInt8 {
		panic(fmt.Sprintf("network: link latency %d does not fit a hop memo entry", maxLat))
	}
	ringLen := 1
	for ringLen < maxLat+3 { // largest link latency plus slack
		ringLen <<= 1
	}
	n.ring = make([][]delivery, ringLen)
	n.ringMask = ringLen - 1
}

// upstreamOf returns what feeds input port in of router r: a router and its
// output port, or router -1 and the node of the feeding NI.
func (n *Network) upstreamOf(r, in int) (router, out int) {
	u := n.ups[n.inBase[r]+in]
	return int(u.router), int(u.out)
}

// Now returns the current simulation cycle.
func (n *Network) Now() sim.Cycle { return n.now }

// Nodes returns the terminal count.
func (n *Network) Nodes() int { return n.topo.Nodes() }

// Topology returns the simulated topology.
func (n *Network) Topology() topology.Topology { return n.topo }

// InFlight returns the number of injected-but-undelivered packets.
func (n *Network) InFlight() int { return n.inFlight }

// NewPacket implements PacketSource: it returns a pooled packet that the
// network will recycle after the delivering Workload.Deliver returns.
func (n *Network) NewPacket() *flit.Packet { return n.pool.NewPacket() }

// Inject implements Injector: it enqueues p at its source NI.
func (n *Network) Inject(p *flit.Packet) {
	if p.Src < 0 || p.Src >= len(n.nis) || p.Dst < 0 || p.Dst >= len(n.nis) {
		panic(fmt.Sprintf("network: packet %d->%d out of range", p.Src, p.Dst))
	}
	if p.Src == p.Dst {
		panic("network: self-addressed packet")
	}
	if p.Size <= 0 {
		panic("network: packet size must be positive")
	}
	p.ID = n.nextID
	n.nextID++
	p.Injected = n.now
	// Reliability: first sends of workload packets get a per-flow sequence
	// number and a sender retransmit record before any drop decision — if
	// the packet is dropped at the source below, the retransmit timer is
	// what retries it (and the retry budget is what eventually gives up).
	// Retransmissions (RelSeq already set) reuse their existing record;
	// acks are never sequenced or tracked.
	if n.rel != nil && !p.RelAck && p.RelSeq == 0 {
		s := &n.nis[p.Src]
		s.relNext[p.Dst]++
		p.RelSeq = s.relNext[p.Dst]
		s.trackTx(p)
	}
	if n.faults != nil && (n.faults.DstDead(p.Dst) || n.faults.RouterPermanentlyDown(n.nis[p.Src].router)) {
		// The destination's home router is down, or the source's own router
		// is permanently dead: the packet can never be delivered, so it is
		// accounted and dropped at the source instead of wedging a queue
		// behind an unreachable destination (or behind a router that will
		// never inject again).
		n.Stats.PacketsInjected++
		n.dropPacket(p)
		return
	}
	n.nis[p.Src].enqueue(p)
	n.inFlight++
	n.Stats.PacketsInjected++
	n.relInflightDelta(p, 1, false)
}

// schedule appends delivery d to the ring slot due in latency cycles.
func (n *Network) schedule(latency int, d delivery) {
	if latency < 1 || latency >= len(n.ring) {
		panic(fmt.Sprintf("network: link latency %d outside ring", latency))
	}
	slot := (int(n.now) + latency) & n.ringMask
	n.ring[slot] = append(n.ring[slot], d)
}

// Step advances the simulation one cycle:
//
//  1. Main phase: fault events, retransmit timers, NI-bound deliveries
//     (NI credits, then ejections in due order) and the workload tick —
//     everything that touches the global stats, the packet pool and the source
//     queues.
//  2. phase: latch the routers' due credits and flits, inject from the NIs,
//     tick the routers. A router tick reads and writes only that router's
//     state (its registry row included) and appends to the ring or the credit
//     latch, which hold every cross-router effect for at least a cycle; so
//     the order routers tick in cannot reach the results.
//  3. Purge the hop-limit victims the latch found.
func (n *Network) Step(w Workload) {
	// Last cycle's credits are due now. Swapping first keeps a credit that
	// this cycle's fault purges return one cycle away, like any other.
	n.credDue, n.credNext = n.credNext, n.credDue[:0]
	// Fault events land first, strictly before any delivery or router work:
	// the fault state is therefore constant for the rest of the cycle.
	if n.faults != nil {
		n.applyFaults()
		n.watchdog()
		// Only a transient down holds the stale sweep: waiting out a
		// permanent fault would hold it forever, and traffic stranded by one
		// is exactly what the sweep must clear for the run to drain. On
		// closed schedules AnyTransientDown == AnyDown, bit-identically.
		if n.faults.AnyTransientDown() {
			n.staleHold = n.now
		} else if int(n.now)&(staleScanEvery-1) == 0 {
			n.staleScan()
		}
	}
	// Retransmit timers fire after fault state settles and before any
	// delivery or injection work: re-injected packets join their source
	// queues for this cycle's injection.
	if n.rel != nil {
		n.relTick(w)
	}
	for _, c := range n.credDue {
		if c.router < 0 {
			n.nis[c.out].credit(int(c.vc))
		}
	}
	slot := int(n.now) & n.ringMask
	due := n.ring[slot]
	for _, d := range due {
		if d.router < 0 { // router-bound flits are latched by phase below
			n.nis[d.port].receive(n.now, d.flit, w)
		}
	}
	if w != nil {
		w.Tick(n.now, n)
	}
	n.phase(due)
	// A schedule always targets a future ring slot (latency >= 1, <
	// len(ring)), so the slot's backing array can be reused once drained.
	n.ring[slot] = due[:0]
	// Hop-limit victims are purged only now, when every flit the cycle
	// produced has reached the ring where the purge sweep can find it.
	if len(n.victims) > 0 {
		n.purgeVictims()
	}
	n.now++
	n.Stats.MeasuredTo = n.now
	if n.series != nil {
		n.series.Tick(n.now, n.Stats, n.registry)
	}
}

// phase runs the router side of a cycle: latch the router-bound due credits,
// then flits (DeliverCredit and Deliver touch disjoint state and only set tick
// bits, so either order is the same), inject from the NIs that have work (one
// flit per node per cycle, ascending node order), tick the routers that have
// work — all of them under the naive reference — in ascending router order.
// Both walks follow the indexes: a cycle costs what it has to do.
func (n *Network) phase(due []delivery) {
	for _, c := range n.credDue {
		if c.router >= 0 {
			n.latchCredit(int(c.router), int(c.out), int(c.vc))
		}
	}
	for _, d := range due {
		if d.router < 0 {
			continue
		}
		if n.hopLimit > 0 && d.flit.Kind.IsHead() && d.flit.Packet.Hops > n.hopLimit {
			n.condemn(d.flit.Packet)
		}
		n.routers[d.router].Deliver(int(d.port), d.flit)
		n.tick.set(int(d.router))
	}
	if n.CheckInvariants {
		n.checkIndexes()
	}
	for wi, w := range n.inj {
		for ; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			s := &n.nis[wi<<6+b]
			s.inject(n.now)
			if s.cur == nil && len(s.queue) == 0 {
				n.inj[wi] &^= 1 << uint(b)
			}
		}
	}
	for wi, w := range n.tick {
		for ; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			node := n.routers[wi<<6+b]
			// A false return promises a fixed point until a delivery undoes it.
			if !node.Tick(n.now) && !n.naive {
				n.tick[wi] &^= 1 << uint(b)
			}
			if n.CheckInvariants {
				node.CheckInvariants()
			}
		}
	}
}

// checkIndexes panics if the indexes miss work: an NI holding a packet, or a
// router that is not quiescent, whose bit is clear would be skipped by the
// phase and the run would silently diverge from the naive one.
func (n *Network) checkIndexes() {
	for i := range n.nis {
		if s := &n.nis[i]; (s.cur != nil || len(s.queue) > 0) && !n.inj.has(i) {
			panic(fmt.Sprintf("network: NI %d holds packets but is not in the injection index", s.node))
		}
	}
	for r, node := range n.routers {
		if !node.Quiescent() && !n.tick.has(r) {
			panic(fmt.Sprintf("network: router %d is not quiescent but is not in the tick index", r))
		}
	}
}

// wakeAll puts every router back in the tick index. The fault paths call it
// (main phase only): an up event can unblock flits parked behind a dead link,
// and the teardown sweeps mutate router state directly.
func (n *Network) wakeAll() { n.tick.setAll(len(n.routers)) }

// applyFaults replays the fault events due this cycle. The fast path — no
// event due — is a single comparison and allocates nothing; event cycles may
// allocate freely (fault storms are rare by construction). Any down event
// triggers a storm scan tearing down pseudo-circuits and packets stranded on
// dead resources. Every event re-activates all routers: an up event can
// unblock flits parked behind a dead link, and the storm scan mutates router
// state directly.
func (n *Network) applyFaults() {
	evs := n.faults.Take(int64(n.now))
	if len(evs) == 0 {
		return
	}
	anyDown := false
	for _, e := range evs {
		n.faults.Apply(e)
		n.Stats.FaultEvents++
		if e.Kind.IsDown() {
			anyDown = true
		}
		if tr := n.tracer; tr != nil {
			kind, out := obs.RouterUp, int32(-1)
			switch e.Kind {
			case fault.LinkDown:
				kind, out = obs.LinkDown, int32(e.Port)
			case fault.LinkUp:
				kind, out = obs.LinkUp, int32(e.Port)
			case fault.RouterDown:
				kind = obs.RouterDown
			}
			tr.Record(obs.Event{
				Cycle: int64(n.now), Kind: kind, Packet: 0, Seq: -1,
				Src: -1, Dst: -1, Loc: int32(e.Router), In: -1, VC: -1, Out: out,
			})
		}
	}
	clear(n.hops) // link state changed: every memoized hop is resolved again
	n.wakeAll()
	if anyDown {
		n.stormScan()
	}
}

// watchdog detects and breaks total standstill. Fault detours do not obey
// the routing algorithm's turn restrictions, so a storm can leave packets in
// a buffer-dependency cycle — each waiting for a credit only another member
// of the cycle can release. Such a wedge makes no progress at all, so the
// hop limit (which fires on delivery) never sees it. The watchdog sums the
// routers' movement counters from the main phase: stallLimit consecutive
// cycles with flits in flight, no transient fault currently down (while one
// is down, parking in front of it is legitimate waiting; a permanent fault
// will never release anyone, so it does not pause the watchdog) and not a
// single buffer write, link traversal, delivery or drop anywhere condemns the
// whole fabric population, accounted as fault drops. Both schedules leave the
// same counts in the rows, so the watchdog fires on the same cycle under
// either. A wedge that forms while other traffic still flows is only
// detected once that traffic drains — the bound is eventual termination, not
// bounded staleness.
func (n *Network) watchdog() {
	t := n.registry.Totals()
	moved := t.BufWrites + t.Traversals + n.Stats.PacketsDelivered + n.Stats.PacketsDropped
	if n.inFlight == 0 || n.faults.AnyTransientDown() || moved != n.lastMove {
		n.lastMove = moved
		n.stallRun = 0
		return
	}
	if n.stallRun++; n.stallRun < n.stallLimit {
		return
	}
	n.breakWedge()
	n.stallRun = 0
}

// staleScanEvery is the stale-sweep period: rare enough that the sweep's
// O(routers × VCs) cost amortizes to noise, frequent enough that the
// effective residence bound stays close to staleLimit.
const staleScanEvery = 64

// staleScan condemns every router-resident packet whose network residence
// (measured from NetStart, the cycle its header left the source NI) exceeds
// staleLimit, plus any packet mid-injection at an NI whose header is that
// old (it is already in the fabric, possibly inside a wedge). Packets still
// waiting whole in a source queue are left alone — they hold no network
// resources, however long they have existed. The sweep is held while any
// fault is down and for staleLimit cycles after the last recovery
// (staleHold): packets parked in front of a dead resource are waiting
// legitimately, and once released they keep their original NetStart, so
// without the grace period recovery would be followed by an immediate
// massacre of exactly the packets the reroute policy just saved. Runs on
// the kernel's main phase, so the sweep order (ascending router, then node)
// is the deterministic condemnation order.
func (n *Network) staleScan() {
	if n.staleHold+n.staleLimit > n.now {
		return
	}
	cutoff := n.now - n.staleLimit
	for _, node := range n.routers {
		node.FaultStale(cutoff, n.condemnFn)
	}
	for i := range n.nis {
		if s := &n.nis[i]; s.cur != nil && s.idx > 0 && s.cur[s.idx].Packet.NetStart < cutoff {
			n.condemn(s.cur[s.idx].Packet)
		}
	}
	if len(n.victims) > 0 {
		n.purgeVictims()
		n.wakeAll()
	}
}

// breakWedge purges every packet resident in the fabric: router buffers
// (via the routers' fault-teardown surface, with every router treated as
// dead), the delivery ring, and any packet mid-injection at an NI. Queued
// but uninjected packets survive — once the fabric is empty they inject and
// route normally. Runs on the main phase only.
func (n *Network) breakWedge() {
	for _, node := range n.routers {
		torn, _ := node.FaultScan(true, n.condemnFn)
		n.Stats.PCFaultTerminated += torn
	}
	for _, due := range n.ring {
		for _, d := range due {
			n.condemn(d.flit.Packet)
		}
	}
	for i := range n.nis {
		if s := &n.nis[i]; s.cur != nil {
			n.condemn(s.cur[s.idx].Packet)
		}
	}
	n.purgeVictims()
	n.wakeAll()
}

// stormScan runs after down events land: it sweeps routers, the delivery
// ring and the NIs for traffic stranded on dead resources, tears down
// affected pseudo-circuits, and purges every condemned packet before the
// cycle's deliveries are processed. It runs on the kernel's main phase, so
// it may touch any state; determinism needs only a fixed sweep order, which
// ascending router/slot/node order provides.
func (n *Network) stormScan() {
	st := n.faults
	for _, node := range n.routers {
		torn, salvaged := node.FaultScan(false, n.condemnFn)
		n.Stats.PCFaultTerminated += torn
		n.Stats.PacketsRerouted += salvaged
	}
	// In-flight flits: a packet dies when one of its flits is mid-link on a
	// dead feeder, when its destination's home router died, or when it is an
	// express flit whose committed continuation link died (express flits
	// cannot buffer at the intermediate router they bypass).
	for _, due := range n.ring {
		for _, d := range due {
			f, r := d.flit, int(d.router)
			if r < 0 {
				if st.RouterDead(n.nis[d.port].router) {
					n.condemn(f.Packet)
				}
				continue
			}
			ur, uo := n.upstreamOf(r, int(d.port))
			switch {
			case ur >= 0 && st.LinkDead(ur, uo):
				n.condemn(f.Packet)
			case ur == -1 && st.RouterDead(r):
				n.condemn(f.Packet)
			case st.DstDead(f.Packet.Dst):
				n.condemn(f.Packet)
			case f.ExpressHops > 0 && st.LinkDead(r, f.NextOut):
				n.condemn(f.Packet)
			}
		}
	}
	// Source queues: packets bound for a dead home router can never deliver.
	// Packets queued at a transiently dead source router are held, not
	// killed — their injection is gated until the router recovers. A
	// permanently dead source router never recovers, so everything queued
	// there is condemned (reliability records, if any, keep retrying until
	// their budgets give the packets up as DeliveryFailed).
	for i := range n.nis {
		s := &n.nis[i]
		srcDead := st.RouterPermanentlyDown(s.router)
		if s.cur != nil {
			if p := s.cur[s.idx].Packet; srcDead || st.DstDead(p.Dst) {
				n.condemn(p)
			}
		}
		for _, p := range s.queue {
			if srcDead || st.DstDead(p.Dst) {
				n.condemn(p)
			}
		}
	}
	n.purgeVictims()
}

// condemn marks a packet for purging, once; repeated reports (a packet can
// trip several teardown rules in one storm) are deduplicated by the Dropped
// flag, which pool recycling clears.
func (n *Network) condemn(p *flit.Packet) {
	if p == nil || p.Dropped {
		return
	}
	p.Dropped = true
	n.victims = append(n.victims, p)
}

// purgeVictims purges every condemned packet in condemnation order.
func (n *Network) purgeVictims() {
	for _, p := range n.victims {
		n.purgePacket(p)
	}
	n.victims = n.victims[:0]
}

// purgePacket removes every trace of a condemned packet: its in-flight ring
// deliveries, its buffered flits and VC allocations inside routers, its
// injection state at the source NI, and its reassembly state at the
// destination. Credits are bookkeeping, not payload — every removed flit
// that debited a downstream buffer slot returns exactly one credit, so a
// fault can never leak buffer space and the network cannot wedge.
func (n *Network) purgePacket(p *flit.Packet) {
	for slot, due := range n.ring {
		kept := due[:0]
		for _, d := range due {
			f := d.flit
			if f.Packet != p {
				kept = append(kept, d)
				continue
			}
			if d.router >= 0 {
				// The flit was heading into a buffer slot its sender already
				// debited; hand the credit back (a relay joins the latch).
				if ur, uo := n.upstreamOf(int(d.router), int(d.port)); ur >= 0 {
					n.latchCredit(ur, uo, f.VC)
				} else {
					n.nis[uo].credit(f.VC)
				}
			}
			n.dropFlit(f)
		}
		n.ring[slot] = kept
	}
	for _, node := range n.routers {
		node.FaultPurge(p, n.dropFn)
	}
	// Source NI: unsent flits, the injection VC, and the queue entry.
	src := &n.nis[p.Src]
	if src.cur != nil && src.cur[src.idx].Packet == p {
		for i := src.idx; i < len(src.cur); i++ {
			n.dropFlit(src.cur[i])
		}
		src.cur = nil
		src.outVC = -1
	}
	for i, q := range src.queue {
		if q == p {
			src.queue = append(src.queue[:i], src.queue[i+1:]...)
			break
		}
	}
	p.Arrived = 0
	n.inFlight--
	n.relInflightDelta(p, -1, false)
	n.dropPacket(p)
}

// dropPacket accounts, traces and recycles a packet the network drops.
func (n *Network) dropPacket(p *flit.Packet) {
	n.Stats.PacketsDropped++
	if tr := n.tracer; tr != nil {
		tr.Record(obs.Event{
			Cycle: int64(n.now), Kind: obs.Drop, Packet: p.ID, Seq: -1,
			Src: int32(p.Src), Dst: int32(p.Dst), Loc: int32(p.Src),
			In: -1, VC: -1, Out: -1,
		})
	}
	n.pool.RecyclePacket(p)
}

// dropFlit accounts and recycles one purged flit.
func (n *Network) dropFlit(f *flit.Flit) {
	n.Stats.FlitsDropped++
	n.pool.RecycleFlit(f)
}

// Run advances the simulation for cycles cycles.
func (n *Network) Run(w Workload, cycles int) {
	for i := 0; i < cycles; i++ {
		n.Step(w)
	}
}

// ResetStats begins the measurement phase: Stats and every router's row are
// cleared at the same instant, so both cover exactly the same window; packets
// injected before it no longer count toward latency averages. The time series
// closes its open warmup window and rebases against the zeroed counters.
func (n *Network) ResetStats() {
	if n.series != nil {
		n.series.Rebase(n.now, n.Stats, n.registry)
	}
	n.Stats.Reset(n.now)
	n.registry.Reset()
}

// Drain runs until the workload is done, no packets remain in flight, and —
// with reliable delivery on — every sender record has been acknowledged or
// abandoned, up to maxCycles. It returns true if the network drained. The
// retry budget bounds how long a record can stay unresolved, so faulted
// reliable runs terminate even under permanent (never-repaired) failures.
func (n *Network) Drain(w Workload, maxCycles int) bool {
	for i := 0; i < maxCycles; i++ {
		if (w == nil || w.Done()) && n.inFlight == 0 && n.relPending == 0 {
			return true
		}
		n.Step(w)
	}
	return (w == nil || w.Done()) && n.inFlight == 0 && n.relPending == 0
}

// Quiescent reports whether all routers and NIs are empty.
func (n *Network) Quiescent() bool {
	if n.inFlight != 0 {
		return false
	}
	for _, r := range n.routers {
		if !r.Quiescent() {
			return false
		}
	}
	return true
}

// Registry returns the routers' event counters: one row per router, and the
// network-wide figures as their Totals.
func (n *Network) Registry() *stats.Registry { return n.registry }

// Energy prices the router events counted since the last ResetStats with the
// paper's Table II model.
func (n *Network) Energy() energy.Meter {
	t := n.registry.Totals()
	return energy.Meter{Params: energy.PaperParams(),
		Writes: t.BufWrites, Reads: t.BufReads, Traversals: t.Traversals, Arbitrations: t.SAGrants}
}

// Series returns the cycle-windowed time series, nil when that probe is off.
func (n *Network) Series() *stats.Series { return n.series }

// Tracer returns the flit-lifecycle tracer, nil when tracing is off.
func (n *Network) Tracer() *obs.Tracer { return n.tracer }

// Stages returns the router stage clock, nil when it is off.
func (n *Network) Stages() *router.StageClock { return n.cfg.Stages }

// Router returns node r (testing hook); for standard networks it is a
// *router.Router.
func (n *Network) Router(r int) Node { return n.routers[r] }

// LinkLoad reports one output channel's traffic over the measurement window.
type LinkLoad struct {
	Router      int
	Out         int
	Flits       uint64
	Utilization float64 // flits per cycle on this channel
	Ejection    bool
}

// LinkLoads returns per-channel utilization over the measurement window,
// most loaded first — a diagnostic for spotting hotspots and routing
// imbalance (e.g. specjbb's over-utilized home banks, paper §6.A).
func (n *Network) LinkLoads() []LinkLoad {
	var out []LinkLoad
	window := float64(n.Stats.Window())
	for rid, row := range n.registry.Routers() {
		var eject uint64 // output ports whose hop leaves the fabric
		n.topo.Links(rid, func(o int, h topology.Hop) {
			if h.Router < 0 {
				eject |= 1 << uint(o)
			}
		})
		for o, flits := range row.OutSends {
			if flits == 0 {
				continue
			}
			ll := LinkLoad{Router: rid, Out: o, Flits: flits, Ejection: eject>>uint(o)&1 != 0}
			if window > 0 {
				ll.Utilization = float64(flits) / window
			}
			out = append(out, ll)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Flits > out[j].Flits })
	return out
}

// QueuedPackets returns the number of packets waiting in source queues
// (testing/diagnostics hook).
func (n *Network) QueuedPackets() int {
	q := 0
	for i := range n.nis {
		s := &n.nis[i]
		q += len(s.queue)
		if s.cur != nil {
			q++
		}
	}
	return q
}
