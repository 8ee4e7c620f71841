package router

import (
	"fmt"
	"reflect"
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/flit"
	"pseudocircuit/internal/sim"
	"pseudocircuit/internal/stats"
	"pseudocircuit/internal/vcalloc"
)

// bench is one router on its own with what it sent, for tests that have to
// see inside it. The last output port is the ejection port.
type bench struct {
	r    *Router
	sent []string // "out:packet.seq@vc" per send, in order
}

func newBench(ports, vcs int, opts core.Options) *bench {
	b := &bench{}
	b.r = New(0, ports, ports, &Config{
		NumVCs:   vcs,
		BufDepth: 4,
		Opts:     opts,
		Alloc:    vcalloc.New(vcalloc.Dynamic, vcs, 1, 64),
		Reg:      stats.NewRegistry([]int{ports}, []int{ports}),
		Send: func(id, out int, f *flit.Flit) {
			b.sent = append(b.sent, fmt.Sprintf("%d:%d.%d@%d", out, f.Packet.ID, f.Seq, f.VC))
		},
		Credit: func(id, in, vc int) {},
	})
	b.r.MarkEjection(ports - 1)
	return b
}

// head returns the header of a fresh 5-flit packet for (vc, out); the rest of
// the packet never arrives, so whoever wins VA keeps the output VC.
func head(id uint64, vc, out int) *flit.Flit {
	f := flit.Split(&flit.Packet{ID: id, Src: 0, Dst: 1, Size: 5})[0]
	f.VC, f.NextOut = vc, out
	return f
}

// snapshot prints every field of the router, its counters and its registers.
func snapshot(r *Router) string {
	return fmt.Sprintf("%+v\n%+v\n%+v", *r, *r.rs, *r.pc)
}

// refAllocateVCs is VA as it was before it followed the port word, kept as
// the oracle: every input port, from the rotating offset, one modulo a step.
func refAllocateVCs(r *Router, now sim.Cycle) {
	n := r.nIn
	start := int(now % sim.Cycle(n))
	for k := 0; k < n; k++ {
		i := (start + k) % n
		for vc := 0; vc < r.V; vc++ {
			l := i*r.V + vc
			if r.active(i, vc) && r.outVC[l] < 0 && r.bufLen[l] > 0 && r.buf[l*r.D].Kind.IsHead() {
				r.tryVA(i, vc)
			}
		}
	}
}

// TestVAOrderMatchesRotation: walking the set bits of the port word from the
// rotation's start upwards and then from zero serves contending lanes in the
// order the every-port loop did. Two identical routers are loaded with
// headers fighting over the two VCs of two outputs; one runs allocateVCs, the
// other the reference loop, at every rotation offset of a 5-, an 8- and a
// 10-port router; then both run on. Lanes, sends and counters must agree, and
// when every port wants the one VC of one output the winner is the port the
// rotation starts at.
func TestVAOrderMatchesRotation(t *testing.T) {
	// load buffers the scenario's headers (two ticks: a port takes one flit a
	// cycle) and runs VA at a cycle whose rotation offset is start.
	load := func(b *bench, heads [][2]int, start int, va func(*Router, sim.Cycle)) sim.Cycle {
		r := b.r
		for vc := 0; vc < 2 && vc < r.V; vc++ {
			for in, h := range heads {
				if out := h[vc]; out >= 0 {
					r.Deliver(in, head(uint64(10*in+vc), vc, out))
				}
			}
			r.Tick(sim.Cycle(vc))
		}
		now := sim.Cycle(2*r.nIn + start)
		r.ports = r.occupied()
		r.admitHeads()
		va(r, now)
		return now
	}
	for _, n := range []int{5, 8, 10} {
		for start := 0; start < n; start++ {
			// Every port wants the only VC of output 0.
			all := make([][2]int, n)
			for i := range all {
				all[i] = [2]int{0, -1}
			}
			b := newBench(n, 1, core.DefaultOptions(core.Baseline))
			load(b, all, start, (*Router).allocateVCs)
			for i := 0; i < n; i++ {
				if won := b.r.outVC[i] >= 0; won != (i == start) {
					t.Errorf("n=%d start=%d: port %d won=%v; the rotation serves port %d first", n, start, i, won, start)
				}
			}

			rng := sim.NewRNG(uint64(100*n + start + 1))
			for trial := 0; trial < 8; trial++ {
				// Each port holds a header on VC 0 and on VC 1 with probability
				// 1/2 each, bound for output 0 or 1: up to 2n lanes for 4 VCs.
				heads := make([][2]int, n)
				for i := range heads {
					heads[i] = [2]int{-1, -1}
					for vc := range heads[i] {
						if rng.Bernoulli(0.5) {
							heads[i][vc] = rng.Intn(2)
						}
					}
				}
				got, ref := newBench(n, 2, core.DefaultOptions(core.Baseline)), newBench(n, 2, core.DefaultOptions(core.Baseline))
				now := load(got, heads, start, (*Router).allocateVCs)
				load(ref, heads, start, refAllocateVCs)
				if !reflect.DeepEqual(got.r.outVC, ref.r.outVC) || !reflect.DeepEqual(got.r.vcBusy, ref.r.vcBusy) {
					t.Fatalf("n=%d start=%d heads=%v: VA gave outVC %v busy %v, the reference loop %v %v",
						n, start, heads, got.r.outVC, got.r.vcBusy, ref.r.outVC, ref.r.vcBusy)
				}
				for c := now; c < now+8; c++ {
					got.r.Tick(c)
					ref.r.Tick(c)
					got.r.CheckInvariants()
				}
				if !reflect.DeepEqual(got.sent, ref.sent) || !reflect.DeepEqual(*got.r.rs, *ref.r.rs) {
					t.Fatalf("n=%d start=%d heads=%v: after VA the runs part:\nsent %v\n     %v\nrow  %+v\n     %+v",
						n, start, heads, got.sent, ref.sent, *got.r.rs, *ref.r.rs)
				}
				if len(got.sent) == 0 && got.r.ports != 0 {
					t.Fatalf("n=%d start=%d heads=%v: headers buffered and nothing sent", n, start, heads)
				}
			}
		}
	}
}

// TestCreditWakesPseudoRouter pins the two halves of DeliverCredit's answer.
// A quiescent Pseudo+S router whose one history register points at an output
// with no credit left revives that circuit on the tick after a credit comes
// back, with no flit anywhere: the credit has to schedule it. The same
// sequence on a Baseline router answers false, and the tick it would have
// caused changes no field, counter or register.
func TestCreditWakesPseudoRouter(t *testing.T) {
	// spend sends 16 single-flit packets from input 1 to output 2 and never
	// returns a credit, then ticks the router to its fixed point.
	spend := func(b *bench) sim.Cycle {
		now := sim.Cycle(0)
		for i := 0; i < 16; i++ {
			f := flit.Split(&flit.Packet{ID: uint64(i), Src: 0, Dst: 1, Size: 1})[0]
			f.VC, f.NextOut = 0, 2
			b.r.Deliver(1, f)
			for len(b.sent) <= i {
				b.r.Tick(now)
				now++
			}
		}
		for b.r.Tick(now) {
			now++
		}
		now++
		if !b.r.Quiescent() || b.r.anyCredit(2) {
			t.Fatalf("set-up: quiescent=%v, output 2 has credit=%v; want true, false", b.r.Quiescent(), b.r.anyCredit(2))
		}
		return now
	}

	b := newBench(5, 4, core.DefaultOptions(core.PseudoS))
	now := spend(b)
	if b.r.pc.Valid(1) || b.r.pc.HistMask>>2&1 == 0 {
		t.Fatalf("set-up: circuit valid=%v, history mask %b; want a dead circuit with output 2's history kept",
			b.r.pc.Valid(1), b.r.pc.HistMask)
	}
	spec := b.r.rs.PCSpeculated
	if !b.r.DeliverCredit(2, 0) {
		t.Error("a credit that lets a pseudo-circuit router speculate did not ask for a tick")
	}
	b.r.Tick(now)
	b.r.CheckInvariants()
	if out, valid := b.r.PCValid(1); !valid || out != 2 || b.r.rs.PCSpeculated != spec+1 {
		t.Errorf("after the credit's tick: circuit out=%d valid=%v, %d speculations; want 2, true, %d",
			out, valid, b.r.rs.PCSpeculated, spec+1)
	}

	b = newBench(5, 4, core.DefaultOptions(core.Baseline))
	now = spend(b)
	if b.r.DeliverCredit(2, 0) {
		t.Error("a credit to a baseline router that holds nothing asked for a tick")
	}
	before := snapshot(b.r)
	if b.r.Tick(now) {
		t.Error("the tick nobody asked for wants another")
	}
	if after := snapshot(b.r); after != before {
		t.Errorf("the tick nobody asked for changed the router:\nbefore %s\nafter  %s", before, after)
	}
}
