// Package flit defines the units of data transferred by the network:
// packets, the flits they are split into, and the message classes used by
// the CMP coherence substrate.
//
// A packet is created by a sender network interface (NI), split into flits
// that fit the link bandwidth, and reassembled at the receiver NI. The first
// flit of a packet is the header flit carrying routing information; the last
// is the tail flit; flits in between are body flits (paper §3.A).
package flit

import (
	"fmt"

	"pseudocircuit/internal/sim"
)

// Kind distinguishes the position of a flit within its packet.
type Kind uint8

const (
	// Header is the first flit of a packet; it carries routing information.
	Header Kind = iota
	// Body flits follow the header and carry payload.
	Body
	// Tail is the last flit; its departure releases the virtual channel.
	Tail
	// HeadTail is a single-flit packet (address-only messages).
	HeadTail
)

func (k Kind) String() string {
	switch k {
	case Header:
		return "H"
	case Body:
		return "B"
	case Tail:
		return "T"
	case HeadTail:
		return "HT"
	default:
		return "?"
	}
}

// IsHead reports whether the flit carries a packet header.
func (k Kind) IsHead() bool { return k == Header || k == HeadTail }

// IsTail reports whether the flit terminates a packet.
func (k Kind) IsTail() bool { return k == Tail || k == HeadTail }

// Class is the message class a packet belongs to. The CMP substrate uses it
// to separate coherence transaction types; synthetic traffic uses ClassData.
type Class uint8

const (
	// ClassRequest is a read/write request (address-only, 1 flit).
	ClassRequest Class = iota
	// ClassResponse is a data response (address + cache block, 5 flits).
	ClassResponse
	// ClassCoherence is a coherence-management message (invalidation/ack).
	ClassCoherence
	// ClassData is generic synthetic-workload data.
	ClassData
)

func (c Class) String() string {
	switch c {
	case ClassRequest:
		return "req"
	case ClassResponse:
		return "resp"
	case ClassCoherence:
		return "coh"
	case ClassData:
		return "data"
	default:
		return "?"
	}
}

// Packet is a network message before flit-ization. Src and Dst are node IDs
// (terminal positions in the topology).
type Packet struct {
	ID       uint64
	Src      int
	Dst      int
	Size     int // number of flits
	Class    Class
	Injected sim.Cycle // cycle the packet entered the source queue
	NetStart sim.Cycle // cycle the header flit left the source NI
	Hops     int       // router hops taken (set by the network)
	// RouteClass pins an O1TURN packet to its XY/YX VC class for the whole
	// route so deadlock freedom holds; the source NI sets it at dequeue.
	RouteClass int
	// Arrived counts the flits the destination NI has reassembled so far; it
	// is zero outside the network (reset on delivery and on a purge, and by
	// pool recycling like every other field).
	Arrived int

	// Meta carries workload-level payload (e.g. the CMP substrate's
	// coherence message); the network never inspects it.
	Meta any

	// RelSeq is the reliability layer's per-flow (src,dst) sequence number,
	// 1-based; zero means the packet is unsequenced (reliability off, or an
	// unreliable class). Retransmissions of a packet carry the same RelSeq,
	// which is what lets the receiver NI deduplicate them.
	RelSeq uint64

	// RelAck marks reliability acknowledgements: RelSeq then names the
	// sequence number being acknowledged and Dst the flow's original sender.
	RelAck bool

	// Dropped marks packets killed by a fault (dead link or router). It
	// guards against double-kill when several fault sweeps reach the same
	// packet in one storm; pool recycling clears it.
	Dropped bool

	// pooled marks packets owned by a Pool; only those re-enter the free
	// list on recycle.
	pooled bool
}

// Flit is the unit of flow control. It carries lookahead routing state:
// NextOut is the output port to use at the router the flit is about to
// enter, computed one hop ahead (Galles-style lookahead routing, paper §3.A).
type Flit struct {
	Packet *Packet
	Kind   Kind
	Seq    int // index within packet, 0-based

	// VC is the virtual channel the flit occupies on the link it last
	// traversed; set by the upstream router's VC allocator (or the NI).
	VC int

	// NextOut is the output port to take at the router this flit is
	// arriving at (lookahead routing). -1 means "eject here".
	NextOut int

	// ExpressHops is the number of intermediate routers this flit may still
	// bypass on an express virtual channel (EVC comparison baseline, paper
	// §7.B). Zero for ordinary flits.
	ExpressHops int

	// EnteredNet is the cycle this flit left its source NI for the first
	// router. The header's is Packet.NetStart; a later flit's minus that is
	// the packet's serialization so far. Nothing reads it yet: it is reserved
	// for the per-packet latency ledger (ROADMAP item 2), whose per-hop terms
	// belong in stamps like this one, which travel with the flit's pointer,
	// rather than in a per-slot array shifted beside every buffer.
	EnteredNet sim.Cycle

	// pooled marks flits owned by a Pool; only those re-enter the free list
	// on recycle.
	pooled bool
}

// String renders a compact debugging description.
func (f *Flit) String() string {
	return fmt.Sprintf("%s[pkt=%d %d->%d seq=%d vc=%d out=%d]",
		f.Kind, f.Packet.ID, f.Packet.Src, f.Packet.Dst, f.Seq, f.VC, f.NextOut)
}

// Split converts a packet into its flits. The caller sets per-flit routing
// (VC, NextOut) at injection time.
func Split(p *Packet) []*Flit {
	if p.Size <= 0 {
		panic("flit: packet size must be positive")
	}
	fs := make([]*Flit, p.Size)
	for i := 0; i < p.Size; i++ {
		k := Body
		switch {
		case p.Size == 1:
			k = HeadTail
		case i == 0:
			k = Header
		case i == p.Size-1:
			k = Tail
		}
		fs[i] = &Flit{Packet: p, Kind: k, Seq: i}
	}
	return fs
}
