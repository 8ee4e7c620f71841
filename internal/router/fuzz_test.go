package router_test

import (
	"fmt"
	"testing"

	"pseudocircuit/internal/core"
	"pseudocircuit/internal/flit"
	"pseudocircuit/internal/sim"
)

// TestFuzzOptionMatrix hammers a single router with randomized traffic
// under every scheme, with invariants checked each cycle and conservation
// verified at the end: flits in == flits out, credits match sends, packets
// stay intact. A scheme with more pseudo-circuit state gets more random
// streams: one for Baseline, three for a pseudo-circuit scheme, two more
// under speculation, each stream seeded by its place in the list.
func TestFuzzOptionMatrix(t *testing.T) {
	var combos []core.Options
	for _, scheme := range core.Schemes {
		n := 1
		if scheme.Pseudo {
			n += 2
		}
		if scheme.Speculation {
			n += 2
		}
		for range n {
			combos = append(combos, core.DefaultOptions(scheme))
		}
	}
	for ci, opts := range combos {
		t.Run(fmt.Sprintf("combo%02d_%v", ci, opts.Scheme), func(t *testing.T) {
			fuzzRouter(t, opts, 3000, sim.NewRNG(uint64(1000+ci)))
		})
	}
}

// fuzzRouter drives random multi-flit packets into random ports and checks
// conservation.
func fuzzRouter(t *testing.T, opts core.Options, cycles int, rng *sim.RNG) {
	t.Helper()
	h := newHarness(t, opts)
	type pending struct {
		fs  []*flit.Flit
		in  int
		idx int
	}
	var streams []*pending // one per (input port, VC) at most
	active := map[[2]int]*pending{}
	nextID := uint64(1)
	injected, seqErr := 0, false

	// Per-(input, VC) credit tracking: the fuzzer plays the upstream
	// router, so it must respect the 4-flit buffers.
	avail := map[[2]int]int{}
	for in := 0; in < 4; in++ {
		for vc := 0; vc < 4; vc++ {
			avail[[2]int{in, vc}] = 4
		}
	}
	received := map[uint64]int{}
	for cy := 0; cy < cycles; cy++ {
		// Maybe start a new packet on a free (in, vc) pair.
		if rng.Bernoulli(0.5) {
			in, vc := rng.Intn(4), rng.Intn(4)
			key := [2]int{in, vc}
			if active[key] == nil {
				p := &flit.Packet{ID: nextID, Src: 0, Dst: 1, Size: 1 + rng.Intn(5)}
				nextID++
				fs := flit.Split(p)
				out := rng.Intn(5)
				for _, f := range fs {
					f.VC = vc
					f.NextOut = out
				}
				st := &pending{fs: fs, in: in}
				active[key] = st
				streams = append(streams, st)
			}
		}
		// Advance each active stream by at most one flit per input port per
		// cycle, respecting the 4-deep buffer (our side of flow control is
		// approximated by capping buffered flits).
		usedPort := map[int]bool{}
		for key, st := range active {
			vc := st.fs[st.idx].VC
			if usedPort[st.in] || avail[[2]int{st.in, vc}] == 0 {
				continue
			}
			usedPort[st.in] = true
			avail[[2]int{st.in, vc}]--
			h.r.Deliver(st.in, st.fs[st.idx])
			st.idx++
			injected++
			if st.idx == len(st.fs) {
				delete(active, key)
			}
		}
		h.tick()
		h.reflect(received, &seqErr, avail)
	}
	// Finish delivering any partially injected packets (a wormhole router
	// rightly refuses to go idle while a packet's tail is outstanding).
	for i := 0; i < 2000 && len(active) > 0; i++ {
		usedPort := map[int]bool{}
		for key, st := range active {
			vc := st.fs[st.idx].VC
			if usedPort[st.in] || avail[[2]int{st.in, vc}] == 0 {
				continue
			}
			usedPort[st.in] = true
			avail[[2]int{st.in, vc}]--
			h.r.Deliver(st.in, st.fs[st.idx])
			st.idx++
			injected++
			if st.idx == len(st.fs) {
				delete(active, key)
			}
		}
		h.tick()
		h.reflect(received, &seqErr, avail)
	}
	// Drain.
	for i := 0; i < 500 && len(h.sent) < injected; i++ {
		h.tick()
		h.reflect(received, &seqErr, avail)
	}
	if len(h.sent) != injected {
		t.Fatalf("conservation violated: %d in, %d out", injected, len(h.sent))
	}
	if seqErr {
		t.Fatal("flits reordered within a packet")
	}
	if !h.r.Quiescent() {
		t.Fatal("router not quiescent after drain")
	}
	// Without speculation, which revives circuits no traversal wrote, every
	// circuit a traversal wrote is live or was counted as terminated.
	if ev := h.row.Events; !opts.Speculation && ev.PCCreated != ev.PCTerminated+uint64(h.r.ValidCircuits()) {
		t.Errorf("%d circuits created, %d terminated + %d live", ev.PCCreated, ev.PCTerminated, h.r.ValidCircuits())
	}
	_ = streams
}

// FuzzCreditStarvation drives the full Pseudo+S+B router (pseudo-circuit
// reuse, speculation, buffer bypass, termination on zero credit) while the
// fuzzer plays a hostile downstream: the starve bitstream dictates windows
// during which sent flits earn no credits back, forcing output VCs to zero
// credit mid-packet. That is exactly the regime where pseudo-circuits must
// terminate (§4.A) and buffer bypass must shut off, and where a
// work-proportional router is most tempted to go idle while it still holds
// state. After the schedule ends all withheld credits are released and the
// router must drain to quiescence with every flit accounted for, in order.
func FuzzCreditStarvation(f *testing.F) {
	f.Add(uint64(1), []byte{0xff, 0x00, 0x3c})
	f.Add(uint64(7), []byte{0xaa, 0x55, 0xaa, 0x55})
	f.Add(uint64(42), []byte{})
	f.Add(uint64(9000), []byte{0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, seed uint64, starve []byte) {
		if len(starve) > 64 {
			starve = starve[:64]
		}
		rng := sim.NewRNG(seed | 1)
		h := newHarness(t, core.DefaultOptions(core.PseudoSB))

		starving := func(cy int) bool {
			if len(starve) == 0 {
				return false
			}
			b := starve[(cy/8)%len(starve)]
			return b>>(uint(cy)%8)&1 == 1
		}

		type pending struct {
			fs  []*flit.Flit
			in  int
			idx int
		}
		active := map[[2]int]*pending{}
		avail := map[[2]int]int{}
		for in := 0; in < 4; in++ {
			for vc := 0; vc < 4; vc++ {
				avail[[2]int{in, vc}] = 4
			}
		}
		received := map[uint64]int{}
		var withheld []sentFlit // credits the downstream is sitting on
		nextID := uint64(1)
		injected, seqErr := 0, false

		inject := func() {
			usedPort := map[int]bool{}
			for key, st := range active {
				vc := st.fs[st.idx].VC
				if usedPort[st.in] || avail[[2]int{st.in, vc}] == 0 {
					continue
				}
				usedPort[st.in] = true
				avail[[2]int{st.in, vc}]--
				h.r.Deliver(st.in, st.fs[st.idx])
				st.idx++
				injected++
				if st.idx == len(st.fs) {
					delete(active, key)
				}
			}
		}
		// reflect checks ordering and reflects credits, withholding the
		// downstream ones while starved.
		reflect := func(starved bool) {
			for ; h.credited < len(h.sent); h.credited++ {
				s := h.sent[h.credited]
				received[s.f.Packet.ID]++
				if s.f.Seq != received[s.f.Packet.ID]-1 {
					seqErr = true
				}
				if s.out == 4 {
					continue // ejection port: no credit loop
				}
				if starved {
					withheld = append(withheld, s)
				} else {
					h.r.DeliverCredit(s.out, s.f.VC)
				}
			}
			if !starved {
				for _, s := range withheld {
					h.r.DeliverCredit(s.out, s.f.VC)
				}
				withheld = withheld[:0]
			}
			for _, c := range h.credits {
				avail[[2]int{c.in, c.vc}]++
			}
			h.credits = h.credits[:0]
		}

		for cy := 0; cy < 1500; cy++ {
			if rng.Bernoulli(0.5) {
				in, vc := rng.Intn(4), rng.Intn(4)
				key := [2]int{in, vc}
				if active[key] == nil {
					p := &flit.Packet{ID: nextID, Src: 0, Dst: 1, Size: 1 + rng.Intn(5)}
					nextID++
					fs := flit.Split(p)
					out := rng.Intn(5)
					for _, f := range fs {
						f.VC = vc
						f.NextOut = out
					}
					active[key] = &pending{fs: fs, in: in}
				}
			}
			inject()
			h.tick()
			reflect(starving(cy))
		}
		// Release every credit, finish partially injected packets, drain.
		for i := 0; i < 3000 && len(active) > 0; i++ {
			inject()
			h.tick()
			reflect(false)
		}
		for i := 0; i < 1000 && len(h.sent) < injected; i++ {
			h.tick()
			reflect(false)
		}
		if len(h.sent) != injected {
			t.Fatalf("conservation violated under starvation schedule: %d in, %d out", injected, len(h.sent))
		}
		if seqErr {
			t.Fatal("flits reordered within a packet")
		}
		if len(active) > 0 {
			t.Fatalf("%d packets never finished injection after credits released", len(active))
		}
		if !h.r.Quiescent() {
			t.Fatal("router not quiescent after starvation release and drain")
		}
	})
}

// reflect processes new sends: reassembly/order checks, downstream credit
// reflection, and upstream credit bookkeeping from the router's Credit
// callback (recorded in h.credits).
func (h *harness) reflect(received map[uint64]int, seqErr *bool, avail map[[2]int]int) {
	for ; h.credited < len(h.sent); h.credited++ {
		s := h.sent[h.credited]
		received[s.f.Packet.ID]++
		if s.f.Seq != received[s.f.Packet.ID]-1 {
			*seqErr = true
		}
		if s.out != 4 {
			h.r.DeliverCredit(s.out, s.f.VC)
		}
	}
	for _, c := range h.credits {
		avail[[2]int{c.in, c.vc}]++
	}
	h.credits = h.credits[:0]
}
