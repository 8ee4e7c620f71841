package vcalloc_test

import (
	"testing"
	"testing/quick"

	"pseudocircuit/internal/vcalloc"
)

func TestClassRanges(t *testing.T) {
	a := vcalloc.New(vcalloc.Dynamic, 4, 2, 64)
	lo, hi := a.ClassRange(0)
	if lo != 0 || hi != 2 {
		t.Errorf("class 0 range = [%d,%d), want [0,2)", lo, hi)
	}
	lo, hi = a.ClassRange(1)
	if lo != 2 || hi != 4 {
		t.Errorf("class 1 range = [%d,%d), want [2,4)", lo, hi)
	}
}

func TestClassRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range class accepted")
		}
	}()
	vcalloc.New(vcalloc.Dynamic, 4, 2, 64).ClassRange(2)
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("indivisible VC/class split accepted")
		}
	}()
	vcalloc.New(vcalloc.Dynamic, 3, 2, 64)
}

// TestStaticVCProperties: static VA is deterministic, in range, within the
// class partition, and depends only on the destination (paper §5: same
// destination ID -> same VC at all input ports).
func TestStaticVCProperties(t *testing.T) {
	a := vcalloc.New(vcalloc.Static, 4, 2, 64)
	err := quick.Check(func(srcA, srcB, dst uint8, class bool) bool {
		c := 0
		if class {
			c = 1
		}
		d := int(dst) % 64
		v1 := a.StaticVC(int(srcA)%64, d, c)
		v2 := a.StaticVC(int(srcB)%64, d, c)
		lo, hi := a.ClassRange(c)
		return v1 == v2 && v1 >= lo && v1 < hi
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestStaticVCFlowKey(t *testing.T) {
	a := vcalloc.New(vcalloc.Static, 4, 1, 64).WithStaticKey(vcalloc.KeyFlow)
	// With flow keying, different sources can map the same destination to
	// different VCs.
	diff := false
	for src := 0; src < 8; src++ {
		if a.StaticVC(src, 5, 0) != a.StaticVC(0, 5, 0) {
			diff = true
		}
	}
	if !diff {
		t.Error("flow keying never varied with source")
	}
}

func TestDynamicPickPrefersCredits(t *testing.T) {
	a := vcalloc.New(vcalloc.Dynamic, 4, 1, 64)
	busy := []bool{false, false, false, false}
	credits := []int16{1, 4, 2, 3}
	if got := a.Pick(0, 1, 0, busy, credits); got != 1 {
		t.Errorf("Pick = %d, want 1 (most credits)", got)
	}
	busy[1] = true
	if got := a.Pick(0, 1, 0, busy, credits); got != 3 {
		t.Errorf("Pick = %d, want 3", got)
	}
}

func TestDynamicPickAllBusy(t *testing.T) {
	a := vcalloc.New(vcalloc.Dynamic, 4, 1, 64)
	busy := []bool{true, true, true, true}
	if got := a.Pick(0, 1, 0, busy, []int16{4, 4, 4, 4}); got != -1 {
		t.Errorf("Pick = %d, want -1", got)
	}
}

func TestDynamicPickRespectsClass(t *testing.T) {
	a := vcalloc.New(vcalloc.Dynamic, 4, 2, 64)
	busy := []bool{false, false, false, false}
	credits := []int16{9, 9, 1, 2}
	if got := a.Pick(0, 1, 1, busy, credits); got != 3 {
		t.Errorf("class-1 Pick = %d, want 3 (class partition [2,4))", got)
	}
}

func TestStaticPickBlockedWhenBusy(t *testing.T) {
	a := vcalloc.New(vcalloc.Static, 4, 1, 64)
	v := a.StaticVC(0, 7, 0)
	busy := make([]bool, 4)
	busy[v] = true
	if got := a.Pick(0, 7, 0, busy, []int16{4, 4, 4, 4}); got != -1 {
		t.Errorf("Pick = %d, want -1 (static VC busy, no fallback)", got)
	}
	busy[v] = false
	if got := a.Pick(0, 7, 0, busy, []int16{4, 4, 4, 4}); got != v {
		t.Errorf("Pick = %d, want %d", got, v)
	}
}

func TestPolicyStrings(t *testing.T) {
	if vcalloc.Dynamic.String() != "dynamicVA" || vcalloc.Static.String() != "staticVA" || vcalloc.Policy(7).String() != "Policy(7)" {
		t.Error("policy strings changed")
	}
}
