package network

import (
	"fmt"

	"pseudocircuit/internal/flit"
	"pseudocircuit/internal/obs"
	"pseudocircuit/internal/sim"
)

// ni is a network interface: the per-terminal endpoint that queues packets,
// splits them into flits, injects at link bandwidth (one flit per cycle)
// under credit flow control, and reassembles arriving flits into packets
// (paper §3.A). A network's NIs are one array (Network.nis).
type ni struct {
	net    *Network
	node   int
	router int
	inPort int

	queue  []*flit.Packet
	cur    []*flit.Flit // flits of the packet being injected
	curBuf []*flit.Flit // backing storage for cur, reused across packets
	idx    int
	outVC  int // VC allocated for the current packet; -1 until it picks, reset wherever cur is cleared
	// nextOut is the current packet's lookahead port at this NI's router,
	// routed for its header; under a fault schedule, for every flit.
	nextOut int

	// credits is the free slots per VC of the router input port this NI
	// feeds, cut from one slab for every NI and as wide as the router's.
	credits []int16

	rng     sim.RNG // the route-class stream
	lastDst int     // previous packet's destination (Fig. 1 end-to-end locality)

	// Reliability state (allocated only with Config.Reliable; DESIGN.md §14).
	// Sender side: relNext assigns per-destination sequence numbers, tx holds
	// the outstanding retransmit records, txIdx maps (dst, seq) to a tx index.
	// Receiver side: relMax/relWin are the per-source dedup window. All of it
	// is touched on the main goroutine only.
	relNext []uint64
	relMax  []uint64
	relWin  []uint64
	tx      []relTx
	txIdx   map[uint64]int
}

// initNI makes s, a zero slot of Network.nis, the NI of node, feeding input
// port inPort of router r, with credits as its (full) credit counters. It
// sets the slot field by field: a whole ni copied into every slot is a
// measurable share of a large network's build (DESIGN.md §17).
func initNI(s *ni, n *Network, node, r, inPort int, credits []int16) {
	s.net, s.node, s.router, s.inPort = n, node, r, inPort
	s.outVC, s.lastDst = -1, -1
	s.credits = credits
	s.rng = *n.rng.Split()
	if n.rel != nil {
		nodes := n.topo.Nodes()
		s.relNext = make([]uint64, nodes)
		s.relMax = make([]uint64, nodes)
		s.relWin = make([]uint64, nodes)
		s.txIdx = make(map[uint64]int)
	}
}

// enqueue adds a packet to the source queue and records end-to-end temporal
// locality (Fig. 1): whether this packet repeats the previous packet's
// source-destination pair.
func (s *ni) enqueue(p *flit.Packet) {
	if s.lastDst >= 0 {
		s.net.Stats.E2EPrev++
		if s.lastDst == p.Dst {
			s.net.Stats.E2ESame++
		}
	}
	s.lastDst = p.Dst
	s.queue = append(s.queue, p)
	s.net.inj.set(s.node)
}

// inject advances the injection state machine by one cycle: start the next
// packet if idle, allocate a VC, and send at most one flit.
func (s *ni) inject(now sim.Cycle) {
	if s.net.faults != nil && s.net.faults.RouterDead(s.router) {
		return // our router is down; hold everything until it recovers
	}
	if s.cur == nil {
		if len(s.queue) == 0 {
			return
		}
		p := s.queue[0]
		s.queue = s.queue[:copy(s.queue, s.queue[1:])]
		s.cur = s.net.pool.SplitInto(s.curBuf[:0], p)
		s.curBuf = s.cur
		s.idx = 0
		p.RouteClass = s.net.engine.ClassFor(&s.rng)
	}
	// Read the packet through the next unsent flit: earlier flits may
	// already have been delivered and recycled (their Packet pointer zeroed)
	// while this NI is still draining the rest of the packet.
	p := s.cur[s.idx].Packet
	if s.outVC < 0 {
		// One packet at a time, its VC released at the tail: no VC of the port
		// is ever held when the next packet picks, so the pick cannot fail.
		s.outVC = s.net.niAlloc.Pick(p.Src, p.Dst, p.RouteClass, s.net.niIdle, s.credits)
	}
	if s.credits[s.outVC] <= 0 {
		return // downstream input VC full; wait for credit
	}
	f := s.cur[s.idx]
	f.VC = s.outVC
	if f.Kind.IsHead() || s.net.faults != nil { // only a fault changes a packet's route
		s.nextOut = s.net.engine.RouteAvoid(s.router, p.Dst, p.RouteClass, s.net.faults)
	}
	f.NextOut = s.nextOut
	f.EnteredNet = now
	if f.Kind.IsHead() {
		p.NetStart = now
	}
	s.credits[s.outVC]--
	s.net.schedule(1, delivery{flit: f, router: int32(s.router), port: int32(s.inPort)})
	if tr := s.net.tracer; tr != nil {
		tr.Record(obs.Event{
			Cycle: int64(now), Kind: obs.Inject, Packet: p.ID, Seq: int32(f.Seq),
			Src: int32(p.Src), Dst: int32(p.Dst),
			Loc: int32(s.node), In: -1, VC: int32(f.VC), Out: int32(f.NextOut),
		})
	}
	s.idx++
	if s.idx == len(s.cur) {
		s.cur = nil // tail injected; the next packet picks its own VC
		s.outVC = -1
	}
}

// credit returns one buffer slot for VC vc at the router input port this NI
// feeds.
func (s *ni) credit(vc int) {
	s.credits[vc]++
	if int(s.credits[vc]) > s.net.cfg.BufDepth {
		panic(fmt.Sprintf("ni %d: credit overflow on vc %d", s.node, vc))
	}
}

// receive accepts an ejected flit, reassembling packets and recording
// delivery statistics when the last flit arrives. Ejected flits are recycled
// into the network's pool immediately; the packet is recycled after the
// workload has seen the delivery.
func (s *ni) receive(now sim.Cycle, f *flit.Flit, w Workload) {
	p := f.Packet
	if p.Dst != s.node {
		panic(fmt.Sprintf("ni %d: misdelivered flit %v", s.node, f))
	}
	if tr := s.net.tracer; tr != nil {
		tr.Record(obs.Event{
			Cycle: int64(now), Kind: obs.Eject, Packet: p.ID, Seq: int32(f.Seq),
			Src: int32(p.Src), Dst: int32(p.Dst),
			Loc: int32(s.node), In: -1, VC: int32(f.VC), Out: -1,
		})
	}
	s.net.pool.RecycleFlit(f)
	p.Arrived++
	if p.Arrived < p.Size {
		return
	}
	if p.Arrived > p.Size {
		panic(fmt.Sprintf("ni %d: duplicate flits for packet %d", s.node, p.ID))
	}
	p.Arrived = 0
	s.net.inFlight--
	if n := s.net; n.rel != nil {
		if p.RelAck {
			// Acknowledgement for one of our packets: clear the sender
			// record. A stray ack (record already cleared or abandoned) is
			// ignored. Acks are protocol overhead, not payload: they are
			// counted separately and never reach delivery stats or the
			// workload.
			n.Stats.AcksReceived++
			if i := s.lookupTx(p.Src, p.RelSeq); i >= 0 {
				s.removeTx(i)
			}
			n.pool.RecyclePacket(p)
			return
		}
		if p.RelSeq != 0 {
			dup := s.relSeen(p.Src, p.RelSeq)
			n.relInflightDelta(p, -1, !dup)
			// Ack both fresh and duplicate arrivals — a duplicate means an
			// earlier ack was lost (or the sender timed out spuriously), and
			// only a fresh ack can stop the retransmissions.
			s.sendAck(p)
			if dup {
				n.Stats.DuplicatesDropped++
				n.pool.RecyclePacket(p)
				return
			}
		}
	}
	measured := p.Injected >= s.net.Stats.MeasuredFrom
	s.net.Stats.RecordDelivery(now-p.Injected, now-p.NetStart, p.Size, p.Hops, measured)
	if w != nil {
		w.Deliver(now, p)
	}
	s.net.pool.RecyclePacket(p)
}
