package obs

import (
	"bytes"
	"testing"
)

// TestRing: the one bounded store every probe is built on keeps the newest
// cap entries, counts the rest as dropped and hands them back oldest first,
// at every fill level around the wrap point.
func TestRing(t *testing.T) {
	for _, capacity := range []int{1, 2, 7} {
		for _, pushes := range []int{0, capacity - 1, capacity, 3*capacity + 1} {
			r := NewRing[int](capacity)
			for i := 0; i < pushes; i++ {
				r.Push(i)
			}
			kept := min(pushes, capacity)
			if r.Len() != kept || r.Dropped() != uint64(pushes-kept) {
				t.Errorf("cap %d, %d pushes: Len %d Dropped %d, want %d and %d",
					capacity, pushes, r.Len(), r.Dropped(), kept, pushes-kept)
			}
			got := r.Values()
			for i, v := range got {
				if want := pushes - kept + i; v != want {
					t.Errorf("cap %d, %d pushes: Values %v, want the last %d pushes in order", capacity, pushes, got, kept)
					break
				}
			}
		}
	}
	for _, c := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRing(%d) did not panic", c)
				}
			}()
			NewRing[int](c)
		}()
	}
	r := NewRing[Event](8)
	for i := 0; i < 16; i++ { // warm past the wrap point
		r.Push(Event{Cycle: int64(i)})
	}
	if avg := testing.AllocsPerRun(100, func() { r.Push(Event{Cycle: 99}) }); avg != 0 {
		t.Errorf("warm Push allocates %.2f per call, want 0", avg)
	}
}

// decodeEvents reads an event stream line by line into Events.
func decodeEvents(data []byte) ([]Event, error) {
	var evs []Event
	_, err := ReadJSONL(bytes.NewReader(data), "event", func(line []byte) error {
		var ev Event
		if err := Strict(line, &ev); err != nil {
			return err
		}
		evs = append(evs, ev)
		return nil
	})
	return evs, err
}

// FuzzValidateEventsJSONL: the shared reader never panics, and what it
// accepts survives a round trip through the shared writer: decoded line by
// line and written back, a stream of n events is accepted with n again, and
// writing it a second time gives the same bytes.
func FuzzValidateEventsJSONL(f *testing.F) {
	var demo bytes.Buffer
	if err := demoTracer().WriteJSONL(&demo); err != nil {
		f.Fatal(err)
	}
	f.Add(demo.Bytes())
	f.Add(append([]byte("\n  \n"), bytes.ReplaceAll(demo.Bytes(), []byte("\n"), []byte("\n\n"))...))
	f.Add([]byte(`{"cycle":3,"ev":"st"}` + "\n\t\n" + `{"cycle":3,"ev":"eject","pkt":18446744073709551615}`))
	f.Add([]byte("not json\n{\"cycle\":"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := ValidateEventsJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		encode := func(data []byte) []byte {
			evs, err := decodeEvents(data)
			if err != nil {
				t.Fatalf("accepted stream does not decode: %v", err)
			}
			var buf bytes.Buffer
			if err := WriteJSONL(&buf, evs); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		once := encode(data)
		if again, err := ValidateEventsJSONL(bytes.NewReader(once)); err != nil || again != n {
			t.Fatalf("re-encoded stream: %d events, err %v; the input had %d\n%s", again, err, n, once)
		}
		if twice := encode(once); !bytes.Equal(once, twice) {
			t.Fatalf("second re-encoding differs:\n%s\n%s", once, twice)
		}
	})
}
