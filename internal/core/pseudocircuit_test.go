package core_test

import (
	"strings"
	"testing"
	"testing/quick"

	"pseudocircuit/internal/core"
)

func TestSchemeStrings(t *testing.T) {
	want := map[string]core.Scheme{
		"Baseline":   core.Baseline,
		"Pseudo":     core.Pseudo,
		"Pseudo+S":   core.PseudoS,
		"Pseudo+B":   core.PseudoB,
		"Pseudo+S+B": core.PseudoSB,
	}
	for label, s := range want {
		if s.String() != label {
			t.Errorf("%+v.String() = %q, want %q", s, s.String(), label)
		}
	}
	if len(core.Schemes) != 5 {
		t.Errorf("Schemes has %d entries, want 5", len(core.Schemes))
	}
}

func TestSchemeValidate(t *testing.T) {
	bad := core.Scheme{Speculation: true}
	if bad.Validate() == nil {
		t.Error("speculation without pseudo accepted")
	}
	bad = core.Scheme{BufferBypass: true}
	if bad.Validate() == nil {
		t.Error("bypass without pseudo accepted")
	}
	for _, s := range core.Schemes {
		if err := s.Validate(); err != nil {
			t.Errorf("%v invalid: %v", s, err)
		}
	}
}

// regFile returns an empty register file with the given radix, laid over
// storage of its own as a router lays it over what it carves; the speculative
// flags start dirty, so InitRegFile must clear them.
func regFile(in, out int) *core.RegFile {
	f := new(core.RegFile)
	spec := make([]bool, in)
	for i := range spec {
		spec[i] = true
	}
	core.InitRegFile(f, in, out, make([]int8, core.RegFileBytes(in, out)), spec)
	return f
}

func check(t *testing.T, f *core.RegFile) {
	t.Helper()
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterLifecycle(t *testing.T) {
	f := regFile(3, 6)
	if f.Valid(1) || f.Match(1, 0, 0) || f.Spec[1] {
		t.Fatal("new register valid")
	}
	if created, displaced := f.Connect(1, 2, 5); !created || displaced {
		t.Fatalf("first connection: created %v displaced %v", created, displaced)
	}
	check(t, f)
	if !f.Match(1, 2, 5) {
		t.Fatal("connected register does not match its own connection")
	}
	if f.Match(1, 1, 5) || f.Match(1, 2, 4) || f.Match(0, 2, 5) {
		t.Fatal("register matched a different connection")
	}
	if created, _ := f.Connect(1, 2, 5); created {
		t.Fatal("a matching flit created a circuit")
	}
	f.Terminate(1)
	check(t, f)
	if f.Valid(1) || f.Match(1, 2, 5) {
		t.Fatal("terminated register still matches")
	}
	// Termination preserves the registers (§3.C) so speculation can reconnect.
	if f.InVC[1] != 2 || f.Out[1] != 5 {
		t.Fatal("termination cleared the registers")
	}
	if !f.ConnectSpeculative(5) {
		t.Fatal("speculation refused an idle output with history")
	}
	check(t, f)
	if !f.Valid(1) || !f.Spec[1] || !f.Match(1, 2, 5) {
		t.Fatal("speculation did not restore the circuit speculatively")
	}
	f.Connect(1, 2, 5)
	if f.Spec[1] {
		t.Fatal("traversal did not clear the speculative flag")
	}
	// A traversal from another input claims the output (§3.C condition 1).
	if created, displaced := f.Connect(0, 1, 5); !created || !displaced {
		t.Fatalf("claiming a held output: created %v displaced %v", created, displaced)
	}
	check(t, f)
	if f.Valid(1) || f.ByOut[5] != 0 {
		t.Fatalf("output 5 held by %d with input 1 valid=%v", f.ByOut[5], f.Valid(1))
	}
	// Fault teardown forgets the connection itself, so nothing reconnects it.
	f.Clear(0)
	check(t, f)
	if f.Valid(0) || f.Out[0] != -1 || f.InVC[0] != -1 {
		t.Fatal("clear left the registers")
	}
	if f.ConnectSpeculative(5) {
		t.Fatal("speculation reconnected a cleared circuit")
	}
	// So does clearing a circuit that was already terminated: the register
	// pair goes, and with it the history bit that would revive it.
	f.Connect(0, 1, 2)
	f.Terminate(0)
	f.Clear(0)
	check(t, f)
	if f.ConnectSpeculative(2) {
		t.Fatal("speculation reconnected a circuit cleared after termination")
	}
}

func TestSpeculativeConnectRefuses(t *testing.T) {
	t.Run("valid", func(t *testing.T) {
		f := regFile(2, 4)
		f.Connect(0, 0, 1)
		f.Terminate(0)
		f.Connect(0, 1, 2)
		if f.ConnectSpeculative(1) {
			t.Fatal("speculation rewired an input that is connected elsewhere")
		}
		if f.ConnectSpeculative(2) {
			t.Fatal("speculation connected an output that holds a circuit")
		}
		check(t, f)
	})
	t.Run("never-set", func(t *testing.T) {
		f := regFile(2, 4)
		if f.ConnectSpeculative(3) {
			t.Fatal("speculation connected an output that never held a circuit")
		}
		check(t, f)
	})
	// The register pair is the history (§4.A): once the input connects
	// elsewhere it has forgotten the idle output.
	t.Run("forgotten", func(t *testing.T) {
		f := regFile(2, 4)
		f.Connect(0, 0, 1)
		f.Connect(0, 1, 2)
		f.Terminate(0)
		if f.ConnectSpeculative(1) {
			t.Fatal("speculation reconnected an output its input has since left")
		}
		check(t, f)
	})
}

// TestMatchProperty: the comparator matches exactly the stored connection
// while valid (Fig. 3 (a) semantics).
func TestMatchProperty(t *testing.T) {
	err := quick.Check(func(setVC, setOut, qVC, qOut uint8, terminated bool) bool {
		// Ids stay below LaneLimit, as routers enforce: an int8 holds no VC 128.
		setVC, setOut, qVC, qOut = setVC%core.LaneLimit, setOut%core.LaneLimit, qVC%core.LaneLimit, qOut%core.LaneLimit
		f := regFile(1, core.LaneLimit)
		f.Connect(0, int(setVC), int(setOut))
		if terminated {
			f.Terminate(0)
			return !f.Match(0, int(qVC), int(qOut))
		}
		want := setVC == qVC && setOut == qOut
		return f.Match(0, int(qVC), int(qOut)) == want
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestHistory: the per-output history register tracks the most recent input
// through the output, and that is the one speculation reconnects (Fig. 5 (b)).
func TestHistory(t *testing.T) {
	f := regFile(4, 2)
	if f.HistMask != 0 {
		t.Fatal("new history valid")
	}
	f.Connect(3, 0, 1)
	if f.HistMask != 1<<1 || f.HistIn[1] != 3 {
		t.Fatalf("history = %d/%b after input 3 connected", f.HistIn[1], f.HistMask)
	}
	f.Connect(1, 0, 1)
	if f.HistIn[1] != 1 {
		t.Fatal("history did not track most recent input")
	}
	f.Terminate(1)
	if !f.ConnectSpeculative(1) || f.ByOut[1] != 1 {
		t.Fatalf("speculation reconnected input %d, want the most recent (1)", f.ByOut[1])
	}
	check(t, f)
}

// TestCheckNamesTheDesyncedStructure corrupts, on a live register file, each
// derived structure (the reverse index, the held mask, the history mask) and
// then the valid bits they are derived from, and expects RegFile.Check to name
// what it found. A valid bit has no second copy to disagree with: a wrong one
// is caught by what the holders say. Two files share one storage slice, as the
// routers of a network share their slab; the first case writes through that
// storage, and a corruption of the second file must leave the first clean.
func TestCheckNamesTheDesyncedStructure(t *testing.T) {
	live := func() (bytes []int8, first, f *core.RegFile) {
		n0 := core.RegFileBytes(2, 2)
		bytes = make([]int8, n0+core.RegFileBytes(3, 4))
		spec := make([]bool, 2+3)
		first, f = new(core.RegFile), new(core.RegFile)
		core.InitRegFile(first, 2, 2, bytes[:n0:n0], spec[:2:2])
		core.InitRegFile(f, 3, 4, bytes[n0:], spec[2:])
		f.Connect(0, 1, 2)
		f.Connect(2, 0, 3)
		f.Terminate(2)
		check(t, f)
		return bytes, first, f
	}
	byOut2 := core.RegFileBytes(2, 2) + 2*3 + 4 + 2 // f.ByOut[2] in the shared storage
	for _, c := range []struct {
		want    string
		corrupt func(bytes []int8, f *core.RegFile)
	}{
		{"ByOut[2]", func(bytes []int8, f *core.RegFile) { bytes[byOut2] = -1 }},
		{"ByOut[3]", func(bytes []int8, f *core.RegFile) { f.ByOut[3] = 2 }},
		{"both hold", func(bytes []int8, f *core.RegFile) { f.ValidMask, f.Out[2] = f.ValidMask|1<<2, 2 }},
		{"ByOut[3] = -1, registers say 2", func(bytes []int8, f *core.RegFile) { f.ValidMask |= 1 << 2 }},
		{"ByOut[2] = 0, registers say -1", func(bytes []int8, f *core.RegFile) { f.ValidMask &^= 1 << 0 }},
		{"input 1 has no register pair", func(bytes []int8, f *core.RegFile) { f.ValidMask |= 1 << 1 }},
		{"input 3 has no register pair", func(bytes []int8, f *core.RegFile) { f.ValidMask |= 1 << 3 }},
		{"HeldMask", func(bytes []int8, f *core.RegFile) { f.HeldMask &^= 1 << 2 }},
		// Input 2's pair is reset and the bit stays: a revival that cannot be.
		{"HistMask 1100, HistIn and the register pairs say 100", func(bytes []int8, f *core.RegFile) { f.InVC[2], f.Out[2] = -1, -1 }},
		// Input 0 still points at output 2 and the bit goes: a lost revival.
		{"HistMask 1000, HistIn and the register pairs say 1100", func(bytes []int8, f *core.RegFile) { f.HistMask &^= 1 << 2 }},
	} {
		bytes, first, f := live()
		c.corrupt(bytes, f)
		if err := f.Check(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("corrupting %s: Check = %v", c.want, err)
		}
		if err := first.Check(); err != nil {
			t.Errorf("corrupting %s in the second file failed the first: %v", c.want, err)
		}
	}
}

func TestDefaultOptions(t *testing.T) {
	for _, s := range core.Schemes {
		if o := core.DefaultOptions(s); o != (core.Options{Scheme: s}) {
			t.Errorf("DefaultOptions(%v) = %+v, want the scheme alone", s, o)
		}
	}
}
