package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"
)

func keyOf(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return hex.EncodeToString(sum[:])
}

// TestRingDeterministic: member order in the config must not matter — every
// node builds the identical ring, or the fleet disagrees on ownership.
func TestRingDeterministic(t *testing.T) {
	a := NewRing([]string{"http://n1", "http://n2", "http://n3"})
	b := NewRing([]string{"http://n3", "http://n1", "http://n2", "http://n1", ""})
	for i := 0; i < 1000; i++ {
		k := keyOf(i)
		ao, bo := a.Owners(k, 2), b.Owners(k, 2)
		if len(ao) != 2 || len(bo) != 2 || ao[0] != bo[0] || ao[1] != bo[1] {
			t.Fatalf("key %d: owners diverge across member orders: %v vs %v", i, ao, bo)
		}
	}
	if !slices.Equal(b.Members(), []string{"http://n1", "http://n2", "http://n3"}) {
		t.Errorf("members %v, want the three distinct names sorted", b.Members())
	}
	// Nodes of different builds must agree too, so the ring is pinned: a
	// four-node fleet's owner lists of a thousand keys, hashed.
	four := NewRing([]string{"http://n1", "http://n2", "http://n3", "http://n4"})
	h := sha256.New()
	for i := 0; i < 1000; i++ {
		fmt.Fprintln(h, four.Owners(keyOf(i), 3))
	}
	if got, pinned := hex.EncodeToString(h.Sum(nil))[:16], "fdf85a11b5ceb6ed"; got != pinned {
		t.Errorf("owner lists hash to %s, pinned %s", got, pinned)
	}
}

// TestRingOwnersDistinct: replicas are distinct members, clamped to fleet
// size, and always include the primary first.
func TestRingOwnersDistinct(t *testing.T) {
	r := NewRing([]string{"http://n1", "http://n2", "http://n3"})
	for i := 0; i < 200; i++ {
		owners := r.Owners(keyOf(i), 5)
		if len(owners) != 3 {
			t.Fatalf("key %d: %d owners, want all 3", i, len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %d: duplicate owner %s", i, o)
			}
			seen[o] = true
		}
		if one := r.Owners(keyOf(i), 1); one[0] != owners[0] {
			t.Fatalf("key %d: primary changes with replica count", i)
		}
	}
	if got := NewRing(nil).Owners(keyOf(0), 2); got != nil {
		t.Fatalf("empty ring returned owners %v", got)
	}
}

// TestRingBalance: 64 vnodes per member keep a 4-node fleet's shares within
// a loose but meaningful band of fair (25% ± 15pt over 20k keys).
func TestRingBalance(t *testing.T) {
	members := []string{"http://n1", "http://n2", "http://n3", "http://n4"}
	r := NewRing(members)
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[r.Owners(keyOf(i), 1)[0]]++
	}
	for _, m := range members {
		share := float64(counts[m]) / n
		if share < 0.10 || share > 0.40 {
			t.Fatalf("member %s owns %.1f%% of keys: %v", m, share*100, counts)
		}
	}
}

// TestRingMinimalRemap: removing one member only remaps the keys it owned;
// every other key keeps its primary. This is the property that lets a fleet
// lose a node without invalidating the surviving disk stores.
func TestRingMinimalRemap(t *testing.T) {
	before := NewRing([]string{"http://n1", "http://n2", "http://n3", "http://n4"})
	after := NewRing([]string{"http://n1", "http://n2", "http://n3"})
	moved := 0
	const n = 5000
	for i := 0; i < n; i++ {
		k := keyOf(i)
		was, is := before.Owners(k, 1)[0], after.Owners(k, 1)[0]
		if was == "http://n4" {
			moved++
			continue
		}
		if was != is {
			t.Fatalf("key %d moved from %s to %s though its owner survived", i, was, is)
		}
	}
	if moved == 0 || moved > n/2 {
		t.Fatalf("removed member owned %d/%d keys", moved, n)
	}
}

// TestRingFleetAgreement: every node, building the ring from its own
// perspective (self + peers), assigns each key the same primary — so with
// replicas covering the fleet, exactly one node claims any key as local.
func TestRingFleetAgreement(t *testing.T) {
	urls := []string{"http://n1", "http://n2", "http://n3"}
	for i := 0; i < 1000; i++ {
		k := keyOf(i)
		locals := 0
		var primary string
		for _, self := range urls {
			peers := make([]string, 0, 2)
			for _, u := range urls {
				if u != self {
					peers = append(peers, u)
				}
			}
			r := NewRing(append([]string{self}, peers...))
			p := r.Owners(k, 1)[0]
			if primary == "" {
				primary = p
			} else if p != primary {
				t.Fatalf("key %d: node %s thinks primary is %s, fleet says %s", i, self, p, primary)
			}
			if p == self {
				locals++
			}
		}
		if locals != 1 {
			t.Fatalf("key %d: %d nodes claim it as local", i, locals)
		}
	}
}
