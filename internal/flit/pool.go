package flit

import "slices"

// Pool is a free list of flits and packets that eliminates steady-state
// allocations in the simulation kernel: a network splits packets into pooled
// flits at injection and recycles them at ejection, so after warmup the tick
// path allocates nothing.
//
// Ownership protocol (DESIGN.md §9):
//
//   - A flit handed to RecycleFlit must not be referenced afterwards; the
//     pool zeroes it and reuses it for a future packet.
//   - A packet handed to RecyclePacket must not be referenced afterwards.
//     The network recycles a packet after Workload.Deliver returns, so
//     workloads must copy anything they need (including Meta) before
//     returning from Deliver.
//   - Only pool-originated objects re-enter the pool: recycling a packet or
//     flit built with a plain composite literal is a no-op, so external code
//     that constructs its own packets (tests, ahead-of-time schedulers) is
//     unaffected.
//
// A Pool is not safe for concurrent use. Each network owns one, made by
// network.New, and it lives and dies with that network: concurrent runs
// never share a pool because they never share a network.
type Pool struct {
	flits   []*Flit
	packets []*Packet
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// NewPacket returns a zeroed pool-owned packet.
func (pl *Pool) NewPacket() *Packet {
	if n := len(pl.packets); n > 0 {
		p := pl.packets[n-1]
		pl.packets[n-1] = nil
		pl.packets = pl.packets[:n-1]
		return p
	}
	return &Packet{pooled: true}
}

// RecyclePacket returns a pool-owned packet to the free list, zeroing it.
// Packets not originating from a pool are ignored.
func (pl *Pool) RecyclePacket(p *Packet) {
	if p == nil || !p.pooled {
		return
	}
	*p = Packet{pooled: true}
	pl.packets = append(pl.packets, p)
}

// newFlit returns a zeroed pool-owned flit.
func (pl *Pool) newFlit() *Flit {
	if n := len(pl.flits); n > 0 {
		f := pl.flits[n-1]
		pl.flits[n-1] = nil
		pl.flits = pl.flits[:n-1]
		return f
	}
	return &Flit{pooled: true}
}

// RecycleFlit returns a pool-owned flit to the free list, zeroing it. Flits
// not originating from a pool are ignored.
func (pl *Pool) RecycleFlit(f *Flit) {
	if f == nil || !f.pooled {
		return
	}
	*f = Flit{pooled: true}
	pl.flits = append(pl.flits, f)
}

// SplitInto converts a packet into its flits like Split, drawing the flits
// from the pool and appending them to dst (pass dst[:0] to reuse a scratch
// slice). The caller sets per-flit routing (VC, NextOut) at injection time.
func (pl *Pool) SplitInto(dst []*Flit, p *Packet) []*Flit {
	if p.Size <= 0 {
		panic("flit: packet size must be positive")
	}
	dst = slices.Grow(dst, p.Size)
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
		f := pl.newFlit()
		f.Packet, f.Kind, f.Seq = p, k, i
		dst = append(dst, f)
	}
	return dst
}
