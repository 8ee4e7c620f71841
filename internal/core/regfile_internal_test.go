package core

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// deepCopy copies every register, mask and history entry of f, so comparing
// the copy with f afterwards sees any write.
func deepCopy(f *RegFile) RegFile {
	c := *f
	c.InVC, c.Out, c.Spec = slices.Clone(f.InVC), slices.Clone(f.Out), slices.Clone(f.Spec)
	c.HistIn, c.ByOut = slices.Clone(f.HistIn), slices.Clone(f.ByOut)
	c.Hist = slices.Clone(f.Hist)
	for i := range c.Hist {
		c.Hist[i].entries = slices.Clone(f.Hist[i].entries)
	}
	return c
}

// TestConnectOnItsOwnCircuitWritesNothing drives random sequences of the four
// writers at depths 1–4 and after each offers every valid register the flit
// that matches it. On a non-speculative circuit Connect reports neither a
// creation nor a displacement and leaves the register file — history entries
// included — exactly as it was. On a speculative one it still does the full
// write: the circuit turns non-speculative and its connection becomes the
// input's most recent.
func TestConnectOnItsOwnCircuitWritesNothing(t *testing.T) {
	const nIn, nOut, nVC = 3, 4, 2
	prop := func(d uint8, ops []uint16) bool {
		depth := 1 + int(d%4)
		f := NewLaneStore(nVC, 4, []int{nIn}, []int{nOut}).RegFile(0, depth)
		for step, op := range ops {
			in, vc, out := int(op>>2)%nIn, int(op>>4)%nVC, int(op>>6)%nOut
			switch op % 4 {
			case 0:
				f.Connect(in, vc, out)
			case 1:
				if f.Valid(in) {
					f.Terminate(in)
				}
			case 2:
				f.Clear(in)
			case 3:
				f.ConnectSpeculative(out)
			}
			for i := 0; i < nIn; i++ {
				if !f.Valid(i) {
					continue
				}
				before := deepCopy(f)
				if created, displaced := f.Connect(i, int(f.InVC[i]), int(f.Out[i])); created || displaced {
					t.Logf("depth %d, step %d: input %d's own flit reported created=%v displaced=%v", depth, step, i, created, displaced)
					return false
				}
				if !before.Spec[i] {
					if after := deepCopy(f); !reflect.DeepEqual(before, after) {
						t.Logf("depth %d, step %d: input %d's own flit rewrote the file:\nbefore %+v\nafter  %+v", depth, step, i, before, after)
						return false
					}
					continue
				}
				if f.Spec[i] || f.Hist[i].entries[0] != (histEntry{VC: int(before.InVC[i]), Out: int(before.Out[i])}) {
					t.Logf("depth %d, step %d: riding input %d's speculative circuit left spec=%v, history %v", depth, step, i, f.Spec[i], f.Hist[i].entries)
					return false
				}
			}
			if err := f.Check(); err != nil {
				t.Logf("depth %d, step %d (op %d): %v", depth, step, op%4, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
