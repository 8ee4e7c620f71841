package router

import (
	"fmt"
	"reflect"
	"strings"
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
		r.ports = r.occPorts
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

// spend brings b's router to its fixed point with output 2 down n of its 16
// credits, spent by single-flit packets from input 1, and output 3 down two,
// spent from input 0; no credit is ever returned. It returns the next cycle.
func spend(t *testing.T, b *bench, n int) sim.Cycle {
	t.Helper()
	r, now, id := b.r, sim.Cycle(0), 0
	send := func(in, out, n int) {
		for ; n > 0; n-- {
			f := flit.Split(&flit.Packet{ID: uint64(id), Src: 0, Dst: 1, Size: 1})[0]
			f.VC, f.NextOut = 0, out
			r.Deliver(in, f)
			for id++; len(b.sent) < id; now++ {
				r.Tick(now)
			}
		}
	}
	send(1, 2, n)
	send(0, 3, 2)
	for r.Tick(now) {
		now++
	}
	r.CheckInvariants()
	var want uint64
	if n == 16 { // 4 VCs of 4 flits: the port's last credit
		want = 1 << 2
	}
	if !r.Quiescent() || r.dry != want {
		t.Fatalf("set-up: quiescent=%v, dry=%b; want true, %b", r.Quiescent(), r.dry, want)
	}
	return now + 1
}

// TestCreditWakesPseudoRouter pins DeliverCredit's answer: a credit asks for a
// tick exactly when it is the first back to a dry port of a router that
// speculates. Each router is brought to its fixed point with output 2 dry.
// The credit to output 3, which was not dry, answers false under every scheme,
// and the tick it would have caused changes no byte of the router, its row or
// its register file. The credit to output 2 answers true under Pseudo+S and
// Pseudo+S+B, and the tick it asks for revives input 1's circuit with no flit
// anywhere; without speculation — Pseudo, Pseudo+B, Baseline — it answers
// false too, and that tick is as idle as the other.
func TestCreditWakesPseudoRouter(t *testing.T) {
	for _, scheme := range core.Schemes {
		b := newBench(5, 4, core.DefaultOptions(scheme))
		r, now := b.r, spend(t, b, 16)
		if scheme.Pseudo && (r.pc.Valid(1) || !r.pc.Valid(0) || r.pc.HistMask != 1<<2|1<<3) {
			t.Fatalf("%v set-up: valid mask %b, history mask %b; want input 1's circuit dead, input 0's live, both outputs' history kept",
				scheme, r.pc.ValidMask, r.pc.HistMask)
		}
		// idle ticks the router once and reports what that changed.
		idle := func(why string) {
			t.Helper()
			before := snapshot(r)
			if r.Tick(now) {
				t.Errorf("%v: the tick nobody asked for (%s) wants another", scheme, why)
			}
			now++
			if after := snapshot(r); after != before {
				t.Errorf("%v: the tick nobody asked for (%s) changed the router:\nbefore %s\nafter  %s", scheme, why, before, after)
			}
		}

		if r.DeliverCredit(3, 0) {
			t.Errorf("%v: a credit to a port that was not dry asked for a tick", scheme)
		}
		idle("a credit to a port with credit")

		spec := r.rs.PCSpeculated
		if woke := r.DeliverCredit(2, 0); woke != scheme.Speculation {
			t.Errorf("%v: the first credit back to a dry port with history asked for a tick: %v; want %v", scheme, woke, scheme.Speculation)
		}
		if r.dry != 0 {
			t.Errorf("%v: dry=%b after the credit; want 0", scheme, r.dry)
		}
		if !scheme.Speculation {
			idle("a credit to a dry port, no speculation")
			continue
		}
		r.Tick(now)
		r.CheckInvariants()
		if out, valid := r.PCValid(1); !valid || out != 2 || r.rs.PCSpeculated != spec+1 {
			t.Errorf("%v, after the credit's tick: circuit out=%d valid=%v, %d speculations; want 2, true, %d",
				scheme, out, valid, r.rs.PCSpeculated, spec+1)
		}
	}
}

// TestCheckInvariantsCatchesDryDesync flips one output's dry bit, in each
// direction and on the ejection port, on a router with one dry output, and
// expects CheckInvariants to name the port and what the credits say.
func TestCheckInvariantsCatchesDryDesync(t *testing.T) {
	for _, c := range []struct {
		out  uint
		want string
	}{
		{2, "dry bit desynced at out 2 (false, credits say true)"},
		{3, "dry bit desynced at out 3 (true, credits say false)"},
		{4, "dry bit desynced at out 4 (true, credits say false)"},
	} {
		b := newBench(5, 4, core.DefaultOptions(core.PseudoSB))
		spend(t, b, 16)
		b.r.dry ^= 1 << c.out
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
					t.Errorf("flipping output %d's dry bit: CheckInvariants said %q; want %q", c.out, msg, c.want)
				}
			}()
			b.r.CheckInvariants()
		}()
	}
}

// TestCheckInvariantsCatchesPortWordDesync flips one bit of each port word on
// a router whose input 0 holds an admitted header and input 1 a buffered one,
// and expects CheckInvariants to name the word and what the masks say.
func TestCheckInvariantsCatchesPortWordDesync(t *testing.T) {
	for _, c := range []struct {
		flip func(r *Router)
		want string
	}{
		{func(r *Router) { r.occPorts ^= 1 << 0 }, "occupied-port word desynced (10, occupancy masks say 11)"},
		{func(r *Router) { r.occPorts ^= 1 << 4 }, "occupied-port word desynced (10011, occupancy masks say 11)"},
		{func(r *Router) { r.actPorts ^= 1 << 0 }, "active-port word desynced (0, active masks say 1)"},
		{func(r *Router) { r.actPorts ^= 1 << 1 }, "active-port word desynced (11, active masks say 1)"},
	} {
		b := newBench(5, 4, core.DefaultOptions(core.Baseline))
		b.r.Deliver(0, head(1, 0, 2))
		b.r.Tick(0)
		b.r.Deliver(1, head(2, 0, 3))
		b.r.Tick(1)
		b.r.CheckInvariants()
		if b.r.occPorts != 0b11 || b.r.actPorts != 0b1 {
			t.Fatalf("set-up: occupied ports %b, active ports %b; want 11, 1", b.r.occPorts, b.r.actPorts)
		}
		c.flip(b.r)
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
					t.Errorf("CheckInvariants said %q; want %q", msg, c.want)
				}
			}()
			b.r.CheckInvariants()
		}()
	}
}

// TestTickOwesTheTerminationABypassLeaves pins the second term of Tick's
// return. A Pseudo+B router at its fixed point holds input 1's circuit to
// output 2, which has one credit left. A single-flit packet that matches the
// circuit bypasses the buffer in phase 6 — after phase 5 — and spends it: the
// router holds nothing, and still owes the termination of a circuit to a dry
// port (§3.C condition 2), so the tick asks for another, which terminates it
// and asks for no more.
func TestTickOwesTheTerminationABypassLeaves(t *testing.T) {
	b := newBench(5, 4, core.DefaultOptions(core.PseudoB))
	r, now := b.r, spend(t, b, 15)
	f := flit.Split(&flit.Packet{ID: 99, Src: 0, Dst: 1, Size: 1})[0]
	f.VC, f.NextOut = 0, 2
	r.Deliver(1, f)
	bypassed, terminated := r.rs.In[1].Bypassed, r.rs.PCTerminated
	again := r.Tick(now)
	r.CheckInvariants()
	if r.rs.In[1].Bypassed != bypassed+1 || !r.Quiescent() || r.dry != 1<<2 || !r.pc.Valid(1) {
		t.Fatalf("set-up: %d bypasses, quiescent=%v, dry=%b, circuit valid=%v; want %d, true, output 2, true",
			r.rs.In[1].Bypassed, r.Quiescent(), r.dry, r.pc.Valid(1), bypassed+1)
	}
	if !again {
		t.Error("the bypass's tick does not ask for another")
	}
	if r.Tick(now + 1) {
		t.Error("the tick that terminates the circuit asks for another")
	}
	r.CheckInvariants()
	if r.pc.Valid(1) || r.rs.PCTerminated != terminated+1 {
		t.Errorf("after the owed tick: circuit valid=%v, %d terminations; want false, %d",
			r.pc.Valid(1), r.rs.PCTerminated, terminated+1)
	}
}
