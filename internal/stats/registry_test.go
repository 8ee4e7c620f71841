package stats_test

import (
	"testing"

	"pseudocircuit/internal/stats"
)

// Rows are windows onto flat storage: each has its router's radix, and no
// write through one row — an append included — can land in a neighbour's.
func TestRegistryLayout(t *testing.T) {
	g := stats.NewRegistry([]int{3, 2, 5}, []int{4, 2, 1})
	rows := g.Routers()
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	for id, want := range [][2]int{{3, 4}, {2, 2}, {5, 1}} {
		r := g.Router(id)
		if r != &rows[id] || r.ID != id {
			t.Errorf("Router(%d) is not row %d of Routers()", id, id)
		}
		if len(r.In) != want[0] || len(r.OutSends) != want[1] {
			t.Errorf("row %d port slices = %d in / %d out, want %d / %d", id, len(r.In), len(r.OutSends), want[0], want[1])
		}
		if cap(r.In) != len(r.In) || cap(r.OutSends) != len(r.OutSends) {
			t.Errorf("row %d slices have spare capacity reaching into row %d", id, id+1)
		}
		for i := range r.In {
			r.In[i].Traversals = uint64(id + 1)
		}
		for o := range r.OutSends {
			r.OutSends[o] = uint64(id + 1)
		}
	}
	for id, r := range rows {
		if s := r.Sum(); s.Traversals != uint64((id+1)*len(r.In)) {
			t.Errorf("row %d sums %d traversals: ports overlap a neighbour's", id, s.Traversals)
		}
		for o, n := range r.OutSends {
			if n != uint64(id+1) {
				t.Errorf("row %d out %d = %d: outputs overlap a neighbour's", id, o, n)
			}
		}
	}
}

func TestRegistryTotalsAndReset(t *testing.T) {
	g := stats.NewRegistry([]int{2, 2}, []int{2, 2})
	a, b := g.Router(0), g.Router(1)
	a.SAGrants, a.BufWrites = 10, 6
	b.SAGrants, b.BufWrites = 5, 1
	a.In[0] = stats.PortStats{Traversals: 5, PCReused: 2, BufHighWater: 4}
	a.In[1] = stats.PortStats{Traversals: 3, PCReused: 1, Bypassed: 1, CreditStalls: 7}
	b.In[1] = stats.PortStats{Traversals: 4, PCReused: 2, BufHighWater: 2}
	b.OutSends[0] = 9

	if s := a.Sum(); s.Traversals != 8 || s.PCReused != 3 || s.CreditStalls != 7 || s.BufHighWater != 4 || s.SAGrants != 10 {
		t.Errorf("row 0 Sum = %+v", s)
	} else if r := s.Reusability(); r != 3.0/8 {
		t.Errorf("Reusability = %v", r)
	}
	tot := g.Totals()
	if tot.SAGrants != 15 || tot.BufWrites != 7 || tot.Traversals != 12 || tot.PCReused != 5 ||
		tot.Bypassed != 1 || tot.CreditStalls != 7 || tot.BufHighWater != 4 {
		t.Errorf("Totals = %+v", tot)
	}

	g.Reset()
	if g.Totals() != (stats.Totals{}) {
		t.Errorf("Totals after Reset = %+v", g.Totals())
	}
	if g.Router(0) != a || len(a.In) != 2 || b.OutSends[0] != 0 {
		t.Error("Reset must zero in place, keeping rows and port slices")
	}
	if a.ID != 0 || b.ID != 1 {
		t.Error("Reset clobbered router IDs")
	}
}

// Rate helpers must guard the zero-traversal case (a router that never
// forwarded anything).
func TestRouterStatsZeroGuards(t *testing.T) {
	var r stats.RouterStats
	if s := r.Sum(); s.Reusability() != 0 || s.BypassRate() != 0 || s.HeadReuseRate() != 0 || s.XbarLocality() != 0 {
		t.Error("zero-value RouterStats rates must be 0")
	}
}
