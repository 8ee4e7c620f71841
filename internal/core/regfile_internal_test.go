package core

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// deepCopy copies every register and mask of f, so comparing the copy with f
// afterwards sees any write.
func deepCopy(f *RegFile) RegFile {
	c := *f
	c.InVC, c.Out, c.Spec = slices.Clone(f.InVC), slices.Clone(f.Out), slices.Clone(f.Spec)
	c.HistIn, c.ByOut = slices.Clone(f.HistIn), slices.Clone(f.ByOut)
	return c
}

// TestConnectOnItsOwnCircuitWritesNothing drives random sequences of the four
// writers and after each offers every valid register the flit that matches
// it. On a non-speculative circuit Connect reports neither a creation nor a
// displacement and leaves the register file exactly as it was. On a
// speculative one it still does the full write, which changes one thing: the
// circuit turns non-speculative, and its pair and history register stay.
func TestConnectOnItsOwnCircuitWritesNothing(t *testing.T) {
	const nIn, nOut, nVC = 3, 4, 2
	prop := func(ops []uint16) bool {
		f := new(RegFile)
		InitRegFile(f, nIn, nOut, make([]int8, RegFileBytes(nIn, nOut)), make([]bool, nIn))
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
					t.Logf("step %d: input %d's own flit reported created=%v displaced=%v", step, i, created, displaced)
					return false
				}
				before.Spec[i] = false
				if after := deepCopy(f); !reflect.DeepEqual(before, after) {
					t.Logf("step %d: input %d's own flit did more than clear Spec:\nbefore %+v\nafter  %+v", step, i, before, after)
					return false
				}
			}
			if err := f.Check(); err != nil {
				t.Logf("step %d (op %d): %v", step, op%4, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
