package flit_test

import (
	"strings"
	"testing"
	"testing/quick"

	"pseudocircuit/internal/flit"
)

func TestSplitSingleFlit(t *testing.T) {
	p := &flit.Packet{ID: 1, Src: 0, Dst: 5, Size: 1}
	fs := flit.Split(p)
	if len(fs) != 1 {
		t.Fatalf("len = %d, want 1", len(fs))
	}
	f := fs[0]
	if f.Kind != flit.HeadTail || !f.Kind.IsHead() || !f.Kind.IsTail() {
		t.Fatalf("single-flit packet kind = %v", f.Kind)
	}
}

func TestSplitMultiFlit(t *testing.T) {
	p := &flit.Packet{ID: 2, Src: 1, Dst: 2, Size: 5}
	fs := flit.Split(p)
	if len(fs) != 5 {
		t.Fatalf("len = %d, want 5", len(fs))
	}
	if fs[0].Kind != flit.Header {
		t.Errorf("first flit kind = %v, want Header", fs[0].Kind)
	}
	for i := 1; i < 4; i++ {
		if fs[i].Kind != flit.Body {
			t.Errorf("flit %d kind = %v, want Body", i, fs[i].Kind)
		}
	}
	if fs[4].Kind != flit.Tail {
		t.Errorf("last flit kind = %v, want Tail", fs[4].Kind)
	}
	for i, f := range fs {
		if f.Seq != i || f.Packet != p {
			t.Errorf("flit %d: seq %d packet %p", i, f.Seq, f.Packet)
		}
	}
}

func TestSplitProperties(t *testing.T) {
	err := quick.Check(func(size uint8) bool {
		n := int(size%32) + 1
		fs := flit.Split(&flit.Packet{Size: n})
		heads, tails := 0, 0
		for _, f := range fs {
			if f.Kind.IsHead() {
				heads++
			}
			if f.Kind.IsTail() {
				tails++
			}
		}
		return len(fs) == n && heads == 1 && tails == 1 &&
			fs[0].Kind.IsHead() && fs[n-1].Kind.IsTail()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitPanicsOnZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Split of empty packet did not panic")
		}
	}()
	flit.Split(&flit.Packet{Size: 0})
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[flit.Kind]string{
		flit.Header: "H", flit.Body: "B", flit.Tail: "T", flit.HeadTail: "HT", flit.Kind(9): "?",
	} {
		if k.String() != want {
			t.Errorf("%v.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestClassStrings(t *testing.T) {
	for c, want := range map[flit.Class]string{
		flit.ClassRequest: "req", flit.ClassResponse: "resp",
		flit.ClassCoherence: "coh", flit.ClassData: "data", flit.Class(9): "?",
	} {
		if c.String() != want {
			t.Errorf("%v.String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestFlitString(t *testing.T) {
	p := &flit.Packet{ID: 7, Src: 3, Dst: 9, Size: 2}
	fs := flit.Split(p)
	s := fs[0].String()
	for _, frag := range []string{"pkt=7", "3->9", "H"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}
