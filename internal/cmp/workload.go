package cmp

import (
	"fmt"
	"math"

	"pseudocircuit/internal/flit"
	"pseudocircuit/internal/network"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/topology"
)

// msgKind enumerates the coherence-protocol messages (paper §5: read
// transactions, write transactions, coherence management).
type msgKind uint8

const (
	msgReadReq   msgKind = iota // core -> home bank, 1 flit
	msgWriteReq                 // core -> home bank, 5 flits (write-through data)
	msgData                     // bank -> core, 5 flits
	msgWriteAck                 // bank -> core, 1 flit
	msgInv                      // bank -> sharer core, 1 flit
	msgInvAck                   // sharer core -> bank, 1 flit
	msgWriteBack                // core -> home bank, 5 flits (write-back protocol only, posted)
)

// Protocol selects the coherence write policy.
type Protocol int

const (
	// WriteThrough is the paper's simplification (§5): every write carries
	// its data to the L2 home bank (5 flits) and completes with a 1-flit
	// acknowledgement after invalidations.
	WriteThrough Protocol = iota
	// WriteBack is the conventional alternative: a write miss sends a
	// 1-flit ownership request, receives the block (5 flits), and the
	// dirty line is written back to the home bank later as a posted 5-flit
	// message. Provided to test the scheme's robustness to the protocol
	// choice; not part of the paper's evaluation.
	WriteBack
)

// msg is the protocol payload; a packet carries it in flit.Packet.Meta as a
// *msg from the workload's free list.
type msg struct {
	kind  msgKind
	block uint64
	core  int // requester (or sharer for Inv/InvAck)
	// writer identifies the write transaction an Inv/InvAck belongs to, so
	// concurrent writes to one block stay disentangled.
	writer int
}

// txnKey identifies a pending write transaction at a bank.
type txnKey struct {
	block  uint64
	writer int
}

// writeTxn tracks an in-progress write at the home bank: the ack count the
// bank still awaits before acknowledging the writer, and how many writes by
// that writer have been folded into the transaction (each needs its own
// acknowledgement to release its MSHR).
type writeTxn struct {
	core    int
	block   uint64
	pending int
	writes  int
}

// event is a deferred message: a bank response becoming ready after the bank
// and, on an L2 miss, memory latency, an invalidation or its ack, or a posted
// write-back. It is kept by value and takes a packet when it is injected.
type event struct {
	due            sim.Cycle
	src, dst, size int
	class          flit.Class
	m              msg
}

// eventHeap is a min-heap on due. push and pop are container/heap's Push and
// Pop with its sift code copied and typed to event, so an event is not boxed
// into an interface on the way in and out; the same swaps in the same order
// keep events with equal due popping in the same order.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(q[j].due < q[i].due) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].due < q[j].due {
			j = j2 // right child
		}
		if !(q[j].due < q[i].due) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	e := q[n]
	*h = q[:n]
	return e
}

// core models one out-of-order processor's memory-reference stream with a
// lockup-free L1 (MSHRsPerCore outstanding misses; the core self-throttles
// when they are exhausted, paper §5).
type core struct {
	id          int
	node        int
	rng         *sim.RNG
	outstanding int
	burst       int
	lastBlock   uint64
	// issue and miss are the two coins tickCore flips every unblocked cycle,
	// as sim.Thresholds: the profile's issue probability (times HotCoreBoost,
	// capped at 1, on a hot core) and its L1 miss rate.
	issue, miss uint64

	// Phase state: the hot pages this core works on until phaseEnd.
	focus    []uint64
	phaseEnd sim.Cycle

	// inflight tracks issue cycles of outstanding misses (bounded by the
	// MSHR count) for miss-latency accounting.
	inflight []sim.Cycle

	// stallCycles counts self-throttled cycles (StallFraction).
	stallCycles uint64
}

// bank models one S-NUCA L2 bank with its slice of the directory.
type bank struct {
	id     int
	node   int
	rng    *sim.RNG
	dir    map[uint64]uint32 // block -> sharer bitmask (32 cores)
	txns   map[txnKey]*writeTxn
	freeAt sim.Cycle // bank occupied until (serialization -> hotspot contention)

	requests uint64
}

// Workload is the closed-loop CMP traffic generator; it implements
// network.Workload.
type Workload struct {
	cfg     TableI
	prof    Profile
	layout  Layout
	cores   []*core
	banks   []*bank
	byNode  map[int]any // node -> *core or *bank
	pending eventHeap
	// free holds the msgs of delivered packets for reuse.
	free []*msg

	// Protocol selects write-through (paper default) or write-back
	// coherence.
	Protocol Protocol

	// MaxMisses optionally caps total L1 misses so Done-based draining
	// terminates (0 = unbounded).
	MaxMisses   uint64
	totalMisses uint64
	// writebacks counts posted write-back packets (diagnostics).
	writebacks uint64

	// System-impact accounting (paper §8 future work: overall system
	// performance, not just network latency).
	missLatencySum uint64
	missCompleted  uint64
	cycles         uint64
}

// New builds the CMP workload for profile prof on topology t using the
// Table I configuration.
func New(t topology.Topology, cfg TableI, prof Profile, rng *sim.RNG) *Workload {
	layout := NewLayout(t, cfg)
	w := &Workload{
		cfg:    cfg,
		prof:   prof,
		layout: layout,
		byNode: make(map[int]any),
	}
	for i := 0; i < cfg.Cores; i++ {
		r := rng.Split()
		issue := prof.IssueProb
		if r.Bernoulli(prof.HotCoreFrac) {
			issue = math.Min(1, issue*prof.HotCoreBoost)
		}
		c := &core{id: i, node: layout.CoreNode(i), rng: r,
			issue: sim.Threshold(issue), miss: sim.Threshold(prof.MissRate)}
		w.cores = append(w.cores, c)
		w.byNode[c.node] = c
	}
	for j := 0; j < cfg.L2Banks; j++ {
		b := &bank{
			id: j, node: layout.BankNode(j), rng: rng.Split(),
			dir:  make(map[uint64]uint32),
			txns: make(map[txnKey]*writeTxn),
		}
		w.banks = append(w.banks, b)
		w.byNode[b.node] = b
	}
	return w
}

// Tick implements network.Workload: release due bank responses and advance
// every core's reference stream.
func (w *Workload) Tick(now sim.Cycle, inj network.Injector) {
	w.cycles++
	for len(w.pending) > 0 && w.pending[0].due <= now {
		e := w.pending.pop()
		w.send(inj, e.src, e.dst, e.size, e.class, e.m)
	}
	for _, c := range w.cores {
		w.tickCore(now, c, inj)
	}
}

func (w *Workload) tickCore(now sim.Cycle, c *core, inj network.Injector) {
	if c.outstanding >= w.cfg.MSHRsPerCore {
		c.stallCycles++ // self-throttled: all MSHRs busy
		return
	}
	if w.MaxMisses > 0 && w.totalMisses >= w.MaxMisses {
		return
	}
	p := &w.prof
	if c.burst > 0 {
		// Streaming burst: stride onward from the previous miss (the L1
		// filters dense sequential hits, so the observed miss stream skips
		// ahead irregularly).
		c.burst--
		w.issueMiss(now, c, c.lastBlock+1+uint64(c.rng.Intn(4)), inj)
		return
	}
	if !c.rng.Below(c.issue) || !c.rng.Below(c.miss) {
		return
	}
	block := w.chooseBlock(now, c)
	if p.BurstLen > 0.5 {
		c.burst = c.rng.Geometric(1 / (1 + p.BurstLen))
	}
	w.issueMiss(now, c, block, inj)
}

// chooseBlock picks the miss address: repeat the previous block with the
// profile's temporal-locality probability; otherwise draw from the core's
// current phase's hot pages (FocusProb of the time) or the full working
// sets.
func (w *Workload) chooseBlock(now sim.Cycle, c *core) uint64 {
	p := &w.prof
	if c.lastBlock != 0 && c.rng.Bernoulli(p.Temporal) {
		return c.lastBlock
	}
	if p.FocusPages > 0 {
		if now >= c.phaseEnd || len(c.focus) == 0 {
			w.newPhase(now, c)
		}
		if c.rng.Bernoulli(p.FocusProb) {
			page := c.focus[c.rng.Intn(len(c.focus))]
			return page*uint64(w.cfg.InterleaveBlocks) + uint64(c.rng.Intn(w.cfg.InterleaveBlocks))
		}
	}
	return w.drawWorkingSet(c)
}

// newPhase re-draws the core's hot page set from the working sets.
func (w *Workload) newPhase(now sim.Cycle, c *core) {
	p := &w.prof
	c.focus = c.focus[:0]
	for i := 0; i < p.FocusPages; i++ {
		c.focus = append(c.focus, w.drawWorkingSet(c)/uint64(w.cfg.InterleaveBlocks))
	}
	c.phaseEnd = now + sim.Cycle(p.PhaseLen)
}

// drawWorkingSet samples the shared (possibly skewed) or private working
// set.
func (w *Workload) drawWorkingSet(c *core) uint64 {
	p := &w.prof
	if c.rng.Bernoulli(p.SharedFrac) {
		u := c.rng.Float64()
		if p.Skew > 0 {
			u = math.Pow(u, 1+p.Skew*10)
		}
		idx := int(u * float64(p.SharedBlocks))
		if idx >= p.SharedBlocks {
			idx = p.SharedBlocks - 1
		}
		return sharedBase + uint64(idx)
	}
	return privateBase(c.id) + uint64(c.rng.Intn(p.PrivateBlocks))
}

// Address-space layout: shared blocks first, then per-core private regions.
const sharedBase uint64 = 1 // block 0 reserved so lastBlock==0 means "none"

func privateBase(coreID int) uint64 {
	return 1 << 20 * (uint64(coreID) + 1)
}

func (w *Workload) issueMiss(now sim.Cycle, c *core, block uint64, inj network.Injector) {
	c.lastBlock = block
	c.outstanding++
	c.inflight = append(c.inflight, now)
	w.totalMisses++
	isRead := c.rng.Bernoulli(w.prof.ReadFrac)
	bank := w.banks[w.layout.HomeBank(block)]
	kind, size, class := msgReadReq, w.cfg.AddrFlits, flit.ClassRequest
	if !isRead {
		kind, class = msgWriteReq, flit.ClassRequest
		if w.Protocol == WriteThrough {
			size = w.cfg.DataFlits // the write carries its data to the bank
		}
	}
	w.send(inj, c.node, bank.node, size, class, msg{kind: kind, block: block, core: c.id})
}

// send injects m in a packet from inj's pool, carried as a *msg from the free
// list; Deliver, or DeliveryFailed, returns the msg to the list.
func (w *Workload) send(inj network.Injector, src, dst, size int, class flit.Class, m msg) {
	var pm *msg
	if n := len(w.free); n > 0 {
		pm, w.free = w.free[n-1], w.free[:n-1]
	} else {
		pm = new(msg)
	}
	*pm = m
	pk := network.AcquirePacket(inj)
	pk.Src, pk.Dst, pk.Size, pk.Class, pk.Meta = src, dst, size, class, pm
	inj.Inject(pk)
}

// take copies the msg a packet carried and returns it to the free list.
func (w *Workload) take(meta any) msg {
	pm, ok := meta.(*msg)
	if !ok {
		panic("cmp: foreign packet in CMP workload")
	}
	w.free = append(w.free, pm)
	return *pm
}

// Deliver implements network.Workload: protocol reactions at banks and
// cores.
func (w *Workload) Deliver(now sim.Cycle, p *flit.Packet) {
	m := w.take(p.Meta)
	switch dst := w.byNode[p.Dst].(type) {
	case *bank:
		w.bankReceive(now, dst, m)
	case *core:
		w.coreReceive(now, dst, m)
	default:
		panic(fmt.Sprintf("cmp: delivery to unmapped node %d", p.Dst))
	}
}

// bankReceive handles requests and invalidation acks at an L2 bank.
func (w *Workload) bankReceive(now sim.Cycle, b *bank, m msg) {
	switch m.kind {
	case msgReadReq:
		b.requests++
		ready := w.bankService(now, b, w.cfg.DataFlits)
		b.dir[m.block] |= 1 << uint(m.core)
		w.respondAt(ready, b, m.core, msgData, w.cfg.DataFlits, m.block, flit.ClassResponse)
	case msgWriteBack:
		// Posted dirty-line write-back (write-back protocol): the bank
		// absorbs the data; no reply, no directory change (the writer
		// keeps ownership until invalidated).
		b.requests++
		w.bankService(now, b, 2)
	case msgWriteReq:
		b.requests++
		occupancy := 2
		if w.Protocol == WriteBack {
			occupancy = w.cfg.DataFlits // the exclusive fill serializes the reply port
		}
		ready := w.bankService(now, b, occupancy)
		sharers := b.dir[m.block] &^ (1 << uint(m.core))
		b.dir[m.block] = 1 << uint(m.core) // write-invalidate: writer becomes sole sharer
		n := 0
		for s := 0; s < w.cfg.Cores; s++ {
			if sharers&(1<<uint(s)) != 0 {
				n++
				w.scheduleCoherence(ready, b.node, s, msgInv, m.block, m.core)
			}
		}
		if n == 0 {
			w.respondWrite(ready, b, m.core, m.block)
			return
		}
		key := txnKey{block: m.block, writer: m.core}
		if prev := b.txns[key]; prev != nil {
			// The same writer re-wrote the block before its first write
			// finished (possible with temporal locality and 4 MSHRs); fold
			// the new invalidations into the outstanding transaction and
			// remember that one more acknowledgement is owed.
			prev.pending += n
			prev.writes++
			return
		}
		b.txns[key] = &writeTxn{core: m.core, block: m.block, pending: n, writes: 1}
	case msgInvAck:
		key := txnKey{block: m.block, writer: m.writer}
		t := b.txns[key]
		if t == nil {
			panic("cmp: stray invalidation ack")
		}
		t.pending--
		if t.pending == 0 {
			delete(b.txns, key)
			for i := 0; i < t.writes; i++ {
				w.respondWrite(now+1, b, t.core, t.block)
			}
		}
	default:
		panic(fmt.Sprintf("cmp: bank %d received unexpected %d", b.id, m.kind))
	}
}

// bankService models bank occupancy: the bank is busy for as many cycles as
// its response needs on the injection port (hot banks queue at their service
// rate, not faster than they can talk), service takes L2BankLatency, and an
// L2 miss adds MemoryLatency.
func (w *Workload) bankService(now sim.Cycle, b *bank, occupancy int) sim.Cycle {
	start := now
	if b.freeAt > start {
		start = b.freeAt
	}
	b.freeAt = start + sim.Cycle(occupancy)
	ready := start + sim.Cycle(w.cfg.L2BankLatency)
	if b.rng.Bernoulli(w.prof.L2MissRate) {
		ready += sim.Cycle(w.cfg.MemoryLatency)
	}
	return ready
}

// respondWrite completes a write: a 1-flit acknowledgement under
// write-through, or the 5-flit exclusive block fill under write-back.
func (w *Workload) respondWrite(due sim.Cycle, b *bank, coreID int, block uint64) {
	if w.Protocol == WriteBack {
		w.respondAt(due, b, coreID, msgData, w.cfg.DataFlits, block, flit.ClassResponse)
		return
	}
	w.respondAt(due, b, coreID, msgWriteAck, w.cfg.AddrFlits, block, flit.ClassResponse)
}

// respondAt schedules a bank→core packet for injection at cycle due.
func (w *Workload) respondAt(due sim.Cycle, b *bank, coreID int, kind msgKind, size int, block uint64, class flit.Class) {
	w.pending.push(event{due: due, src: b.node, dst: w.cores[coreID].node, size: size, class: class,
		m: msg{kind: kind, block: block, core: coreID}})
}

// scheduleCoherence schedules a coherence-management packet (invalidation)
// from a bank to a sharer core, tagged with the owning write transaction.
func (w *Workload) scheduleCoherence(due sim.Cycle, from, sharer int, kind msgKind, block uint64, writer int) {
	w.pending.push(event{due: due, src: from, dst: w.cores[sharer].node, size: w.cfg.AddrFlits,
		class: flit.ClassCoherence, m: msg{kind: kind, block: block, core: sharer, writer: writer}})
}

// coreReceive completes misses and answers invalidations at a core.
func (w *Workload) coreReceive(now sim.Cycle, c *core, m msg) {
	switch m.kind {
	case msgData, msgWriteAck:
		c.outstanding--
		if c.outstanding < 0 {
			panic(fmt.Sprintf("cmp: core %d MSHR underflow", c.id))
		}
		if w.Protocol == WriteBack && m.kind == msgData && c.rng.Bernoulli(0.4) {
			// A fraction of filled lines are dirtied and written back after
			// residing in the L1 for a while (posted; holds no MSHR).
			delay := sim.Cycle(50 + c.rng.Intn(300))
			w.writebacks++
			w.pending.push(event{due: now + delay, src: c.node, dst: w.banks[w.layout.HomeBank(m.block)].node,
				size: w.cfg.DataFlits, class: flit.ClassCoherence,
				m: msg{kind: msgWriteBack, block: m.block, core: c.id}})
		}
		// Misses complete roughly in issue order (same-path responses do
		// not overtake); FIFO matching keeps the latency estimate honest
		// within a couple of cycles.
		issued := c.inflight[0]
		c.inflight = c.inflight[:copy(c.inflight, c.inflight[1:])]
		w.missLatencySum += uint64(now - issued)
		w.missCompleted++
	case msgInv:
		// Drop the line and acknowledge to the home bank, echoing the write
		// transaction's identity.
		b := w.banks[w.layout.HomeBank(m.block)]
		w.pending.push(event{due: now + 1, src: c.node, dst: b.node, size: w.cfg.AddrFlits,
			class: flit.ClassCoherence, m: msg{kind: msgInvAck, block: m.block, core: c.id, writer: m.writer}})
	default:
		panic(fmt.Sprintf("cmp: core %d received unexpected %d", c.id, m.kind))
	}
}

// DeliveryFailed implements network.FailureObserver: the reliability layer
// exhausted a packet's retry budget, so the protocol message in meta will
// never arrive. The transaction waiting on it is unwound so the workload
// drains instead of wedging — a failed request or response releases the
// requester's MSHR (without a miss-latency sample: the miss did not
// complete), and a failed invalidation leg is treated as acknowledged so the
// bank's write transaction can finish.
func (w *Workload) DeliveryFailed(now sim.Cycle, src, dst int, class flit.Class, meta any) {
	m := w.take(meta)
	switch m.kind {
	case msgReadReq, msgWriteReq, msgData, msgWriteAck:
		// The miss can no longer complete: either the request never reached
		// the bank or the response never reached the core. Release the
		// requester's MSHR either way.
		c := w.cores[m.core]
		c.outstanding--
		if c.outstanding < 0 {
			panic(fmt.Sprintf("cmp: core %d MSHR underflow on delivery failure", c.id))
		}
		c.inflight = c.inflight[:copy(c.inflight, c.inflight[1:])]
	case msgInv, msgInvAck:
		// One invalidation leg is gone (the sharer will never see the Inv, or
		// the bank will never see the Ack) — count it as acknowledged. Unlike
		// bankReceive, tolerate a missing transaction: a lost Inv whose write
		// already completed through the other sharers cannot happen (each
		// sharer is decremented exactly once), but a failed request that never
		// created the transaction leaves nothing to unwind.
		b := w.banks[w.layout.HomeBank(m.block)]
		key := txnKey{block: m.block, writer: m.writer}
		if t := b.txns[key]; t != nil {
			t.pending--
			if t.pending == 0 {
				delete(b.txns, key)
				for i := 0; i < t.writes; i++ {
					w.respondWrite(now+1, b, t.core, t.block)
				}
			}
		}
	case msgWriteBack:
		// Posted: nothing waits on it.
	default:
		panic(fmt.Sprintf("cmp: delivery failure for unexpected %d", m.kind))
	}
}

// Done implements network.Workload: true when a miss cap is set, reached,
// and all transactions have completed.
func (w *Workload) Done() bool {
	if w.MaxMisses == 0 || w.totalMisses < w.MaxMisses {
		return false
	}
	if len(w.pending) > 0 {
		return false
	}
	for _, c := range w.cores {
		if c.outstanding > 0 {
			return false
		}
	}
	for _, b := range w.banks {
		if len(b.txns) > 0 {
			return false
		}
	}
	return true
}

// TotalMisses returns the number of L1 misses issued so far.
func (w *Workload) TotalMisses() uint64 { return w.totalMisses }

// Writebacks returns posted write-back packets scheduled so far
// (write-back protocol only).
func (w *Workload) Writebacks() uint64 { return w.writebacks }

// AvgMissLatency returns the mean cycles from miss issue to data/ack
// arrival — the system-level quantity the network accelerates (paper §8:
// "overall system performance such as IPC"; miss latency is its dominant
// network-dependent term under the self-throttling MSHR model).
func (w *Workload) AvgMissLatency() float64 {
	if w.missCompleted == 0 {
		return 0
	}
	return float64(w.missLatencySum) / float64(w.missCompleted)
}

// StallFraction returns the fraction of core-cycles spent blocked with all
// MSHRs outstanding.
func (w *Workload) StallFraction() float64 {
	if w.cycles == 0 {
		return 0
	}
	var stalls uint64
	for _, c := range w.cores {
		stalls += c.stallCycles
	}
	return float64(stalls) / float64(w.cycles*uint64(len(w.cores)))
}

// ResetSystemStats clears the system-impact accumulators (miss latency and
// stall counts) at the start of a measurement window.
func (w *Workload) ResetSystemStats() {
	w.missLatencySum, w.missCompleted, w.cycles = 0, 0, 0
	for _, c := range w.cores {
		c.stallCycles = 0
	}
}

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
