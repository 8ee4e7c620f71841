package network

import (
	"pseudocircuit/internal/flit"
	"pseudocircuit/internal/sim"
)

// End-to-end reliable delivery (DESIGN.md §14). With Config.Reliable set,
// every workload packet carries a per-flow (src,dst) sequence number; the
// receiving NI acknowledges each sequenced packet with a 1-flit ack packet
// (RelAck set) that travels the network like any other traffic, and
// deduplicates retransmissions against a per-source sliding window. The
// sending NI keeps one retransmit record per unacked packet and re-injects a
// fresh copy on a deterministic timeout with capped exponential backoff; a
// bounded retry budget turns permanent loss into a counted DeliveryFailed
// (reported to the workload when it implements FailureObserver), never a
// hang.
//
// Determinism: every piece of reliability state — sequence counters, sender
// records, receiver windows — is mutated in the kernel's main phase only
// (Inject, ni.receive and relTick all run there), so reliable runs stay
// bit-identical between the naive and the active-set schedule.

// Reliability configures the end-to-end reliable delivery layer. The zero
// value of each field selects its default.
type Reliability struct {
	// Timeout is the cycles after a (re)send before the sender retransmits.
	// It should exceed the round-trip time at the operating point (delivery
	// plus the returning ack), or healthy packets are retransmitted
	// spuriously — safe, the receiver deduplicates, but wasteful.
	Timeout int
	// MaxTimeout caps the exponential backoff (Timeout, 2·Timeout, 4·Timeout,
	// …, MaxTimeout).
	MaxTimeout int
	// Budget is the maximum number of send attempts per packet, including
	// the first. When the budget is exhausted and no copy is left in the
	// network, the packet is abandoned: Stats.DeliveryFailed is incremented
	// and FailureObserver workloads are notified.
	Budget int
}

// Reliability defaults: the timeout clears the round-trip at every operating
// point the experiments run (latencies are tens to low hundreds of cycles),
// the cap keeps abandoned flows from idling for whole measurement windows,
// and the budget bounds worst-case give-up time at roughly
// Timeout + 2·Timeout + … ≈ 5·MaxTimeout cycles.
const (
	DefaultRelTimeout    = 256
	DefaultRelMaxTimeout = 2048
	DefaultRelBudget     = 8
)

// WithDefaults fills zero fields and clamps the pair ordering.
func (r Reliability) WithDefaults() Reliability {
	if r.Timeout <= 0 {
		r.Timeout = DefaultRelTimeout
	}
	if r.MaxTimeout <= 0 {
		r.MaxTimeout = DefaultRelMaxTimeout
	}
	if r.MaxTimeout < r.Timeout {
		r.MaxTimeout = r.Timeout
	}
	if r.Budget <= 0 {
		r.Budget = DefaultRelBudget
	}
	return r
}

// FailureObserver is implemented by workloads that want to hear about
// abandoned packets. DeliveryFailed is called on the kernel's main goroutine
// when a packet's retry budget is exhausted with no copy left in flight: the
// payload described by (src, dst, class, meta) will never be delivered, so a
// closed-loop workload must unwind whatever transaction was waiting on it
// instead of wedging. meta is the Packet.Meta of the abandoned packet.
type FailureObserver interface {
	DeliveryFailed(now sim.Cycle, src, dst int, class flit.Class, meta any)
}

// relTx is one sender-side retransmit record: an injected, sequenced,
// not-yet-acknowledged packet. The record owns everything needed to rebuild
// the packet (retransmissions are fresh pooled packets; the original may
// long since have been delivered and recycled).
type relTx struct {
	dst       int
	seq       uint64
	size      int
	class     flit.Class
	meta      any
	attempts  int       // sends so far (>= 1)
	inflight  int       // copies currently inside the network
	delivered bool      // some copy reached the destination workload
	deadline  sim.Cycle // next retransmit (or give-up) decision cycle
}

// txKey packs a sender record's map key. Sequence numbers are per-flow
// injection counters, far below 2^40 for any feasible run length (the
// service bounds runs at 10M cycles), so the destination tag above bit 40
// cannot collide.
func txKey(dst int, seq uint64) uint64 { return uint64(dst)<<40 | seq }

// trackTx registers a freshly sequenced packet with its sender NI. Called
// from Inject on the main goroutine, before the packet is enqueued (the
// record must exist even when the packet is immediately dropped at the
// source — the retransmit timer is then what retries it).
func (s *ni) trackTx(p *flit.Packet) {
	s.tx = append(s.tx, relTx{
		dst:      p.Dst,
		seq:      p.RelSeq,
		size:     p.Size,
		class:    p.Class,
		meta:     p.Meta,
		attempts: 1,
		deadline: s.net.now + sim.Cycle(s.net.rel.Timeout),
	})
	s.txIdx[txKey(p.Dst, p.RelSeq)] = len(s.tx) - 1
	s.net.relPending++
}

// lookupTx returns the index of the record for (dst, seq), or -1.
func (s *ni) lookupTx(dst int, seq uint64) int {
	if i, ok := s.txIdx[txKey(dst, seq)]; ok {
		return i
	}
	return -1
}

// removeTx deletes record i by swap-removal, fixing the moved record's index
// entry. The order perturbation is deterministic: records are only ever
// mutated in the main phase, in the same order on both schedules.
func (s *ni) removeTx(i int) {
	rec := &s.tx[i]
	delete(s.txIdx, txKey(rec.dst, rec.seq))
	rec.meta = nil // release the payload reference for the pool's sake
	last := len(s.tx) - 1
	if i != last {
		s.tx[i] = s.tx[last]
		s.txIdx[txKey(s.tx[i].dst, s.tx[i].seq)] = i
	}
	s.tx[last] = relTx{}
	s.tx = s.tx[:last]
	s.net.relPending--
}

// relSeen records sequence seq from peer in the receive window and reports
// whether it was already delivered. The window is relMax (highest sequence
// seen per peer) plus a 64-bit bitmap covering [relMax-63, relMax]; a
// sequence below the window is conservatively treated as a duplicate. That
// is exact unless a flow accumulates more than 64 newer deliveries while one
// packet's retransmissions are still pending — far beyond the outstanding
// window of any workload here (the CMP substrate holds at most a few misses
// per flow) — and the failure mode is a dropped-then-re-acked packet, never
// a duplicate delivery.
func (s *ni) relSeen(peer int, seq uint64) bool {
	max := s.relMax[peer]
	switch {
	case seq > max:
		if shift := seq - max; shift >= 64 {
			s.relWin[peer] = 1
		} else {
			s.relWin[peer] = s.relWin[peer]<<shift | 1
		}
		s.relMax[peer] = seq
		return false
	case max-seq >= 64:
		return true
	default:
		bit := uint64(1) << (max - seq)
		if s.relWin[peer]&bit != 0 {
			return true
		}
		s.relWin[peer] |= bit
		return false
	}
}

// sendAck injects the 1-flit acknowledgement for sequenced packet p back to
// its source. Acks are ordinary network traffic — they occupy VCs, burn
// energy and can be dropped by faults (a lost ack is recovered by the data
// retransmission it provokes, which the receiver dedups and re-acks). They
// are never themselves sequenced or acknowledged.
func (s *ni) sendAck(p *flit.Packet) {
	a := s.net.pool.NewPacket()
	a.Src, a.Dst = s.node, p.Src
	a.Size = 1
	a.RelAck = true
	a.RelSeq = p.RelSeq
	s.net.Stats.AcksSent++
	s.net.Inject(a)
}

// relInflightDelta adjusts the in-network copy count of the record backing
// sequenced data packet p (no-op for acks, unsequenced packets, or records
// already cleared by an ack). Called wherever a copy enters or leaves the
// network: Inject (+1), final ejection at the receiver (-1), and fault purge
// (-1). The count is what keeps budget exhaustion honest: the sender only
// abandons a packet when no copy can still arrive.
func (n *Network) relInflightDelta(p *flit.Packet, d int, delivered bool) {
	if n.rel == nil || p.RelAck || p.RelSeq == 0 {
		return
	}
	s := &n.nis[p.Src]
	if i := s.lookupTx(p.Dst, p.RelSeq); i >= 0 {
		s.tx[i].inflight += d
		if delivered {
			s.tx[i].delivered = true
		}
	}
}

// relTick drives every sender's retransmit timers one cycle. It runs in the
// kernel's main phase, after fault events land and before any
// delivery or injection work, walking NIs in ascending node order — a fixed
// point in the cycle, so timer decisions are bit-identical on both
// schedules. Due records either retransmit (fresh pooled packet, same flow and
// sequence, capped exponential backoff) or, once the budget is spent and no
// copy remains in the network, give the packet up: DeliveryFailed if it
// never arrived, silent record retirement if it was delivered but every ack
// was lost.
func (n *Network) relTick(w Workload) {
	for k := range n.nis {
		s := &n.nis[k]
		for i := 0; i < len(s.tx); {
			rec := &s.tx[i]
			if rec.deadline > n.now {
				i++
				continue
			}
			if rec.attempts >= n.rel.Budget {
				if rec.inflight > 0 {
					// The final copy is still traveling: it will either be
					// delivered (the ack clears the record) or purged (the
					// count drops to zero and the next tick abandons it).
					// Re-examining each cycle keeps the decision cycle
					// deterministic without a separate wait state.
					i++
					continue
				}
				if !rec.delivered {
					n.Stats.DeliveryFailed++
					if fo, ok := w.(FailureObserver); ok {
						fo.DeliveryFailed(n.now, s.node, rec.dst, rec.class, rec.meta)
					}
				}
				s.removeTx(i)
				continue // the swapped-in record is examined next
			}
			rec.attempts++
			backoff := n.rel.MaxTimeout
			if sh := rec.attempts - 1; sh < 32 {
				if b := n.rel.Timeout << sh; b < backoff {
					backoff = b
				}
			}
			rec.deadline = n.now + sim.Cycle(backoff)
			p := n.pool.NewPacket()
			p.Src, p.Dst = s.node, rec.dst
			p.Size = rec.size
			p.Class = rec.class
			p.Meta = rec.meta
			p.RelSeq = rec.seq
			n.Stats.PacketsRetransmitted++
			n.Inject(p)
			i++
		}
	}
}

// RelPending returns the number of unresolved sender records — packets
// injected under the reliability layer that are neither acknowledged nor
// abandoned yet (testing/diagnostics hook; Drain waits for it to reach 0).
func (n *Network) RelPending() int { return n.relPending }
