package network

import "testing"

// TestReliableBookkeeping: a zero Reliability field takes its default and a
// cap below the timeout is raised to it; the receiver's window remembers the
// 64 sequence numbers up to the newest from a peer and calls anything older
// a duplicate.
func TestReliableBookkeeping(t *testing.T) {
	for _, c := range []struct{ in, want Reliability }{
		{Reliability{}, Reliability{DefaultRelTimeout, DefaultRelMaxTimeout, DefaultRelBudget}},
		{Reliability{Timeout: 512, MaxTimeout: 100, Budget: 3}, Reliability{512, 512, 3}},
	} {
		if got := c.in.withDefaults(); got != c.want {
			t.Errorf("%+v.withDefaults() = %+v, want %+v", c.in, got, c.want)
		}
	}
	s := &ni{relMax: make([]uint64, 1), relWin: make([]uint64, 1)}
	for i, c := range []struct {
		seq  uint64
		seen bool
	}{{100, false}, {100, true}, {37, false}, {37, true}, {36, true}, {101, false}} {
		if got := s.relSeen(0, c.seq); got != c.seen {
			t.Errorf("step %d: relSeen(%d) = %v, want %v", i, c.seq, got, c.seen)
		}
	}
}
